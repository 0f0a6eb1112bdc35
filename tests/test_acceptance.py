"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any assertion failure marks the criterion red.
"""

import math
import time

import numpy as np
import pytest

from qcompare import cli
from qcompare.comparison import multiport_success_forms, p_success_multiport, p_symm
from qcompare.detection import IDEAL, run_trials
from qcompare.fock import (
    apply_bs_fock,
    coherent_fock,
    fidelity,
    odd_photon_probability,
    product_state,
)
from qcompare.linear import CoherentRegister, apply_network, make_beam_splitter
from qcompare.lockkey import (
    entropy_by_diagonalization,
    holevo_entropy_finite,
    holevo_entropy_infinite,
    optimal_coherent_attack,
    stirling_entropy_approx,
)
from qcompare.pkd import (
    AliceCenterAttack,
    distributed_exchange,
    private_key_amplitudes,
    simulate_dishonest_alice_center,
)

RNG = np.random.default_rng(60221023)
SQRT2 = math.sqrt(2.0)


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def random_amp(scale):
    z = RNG.standard_normal() + 1j * RNG.standard_normal()
    return scale * z / abs(z) * RNG.random()


def test_criterion_01_two_state_monte_carlo_matches_closed_form():
    start = time.perf_counter()
    for i, d in enumerate((0.5, 1.0, 2.0, 3.0)):
        alpha, beta = d / 2, -d / 2
        stats = run_trials(CoherentRegister([alpha, beta]), make_beam_splitter(0.5),
                           [1], IDEAL, trials=100_000, rng=100 + i)
        p = 1.0 - math.exp(-0.5 * d * d)
        sigma = math.sqrt(p * (1.0 - p) / stats.trials)
        assert abs(stats.rate - p) <= 3.0 * sigma, (d, stats.rate, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(1, f"difference-detection rate matches 1-exp(-d^2/2) on the d grid "
                f"within 3 sigma at 1e5 trials ({elapsed:.2f} s)")


def test_criterion_02_multiport_failure_never_beats_symmetric_projection():
    start = time.perf_counter()
    worst = -1.0
    for _ in range(10_000):
        n = int(RNG.integers(2, 6))
        amps = np.array([random_amp(3.0) for _ in range(n)])
        lhs = 1.0 - p_success_multiport(amps)
        rhs = p_symm(amps)
        slack = rhs - lhs
        worst = max(worst, -slack)
        assert slack >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(2, f"1 - p_succ <= p_symm on 1e4 random tuples (N in 2..5), smallest "
                f"margin {-worst:.2e} ({elapsed:.2f} s)")


def test_criterion_03_three_success_probability_forms_agree():
    worst = 0.0
    for _ in range(1000):
        n = int(RNG.integers(2, 7))
        amps = np.array([random_amp(2.0) for _ in range(n)])
        forms = multiport_success_forms(amps)
        spread = max(forms) - min(forms)
        worst = max(worst, spread)
        assert spread <= 1e-10
    announce(3, f"pairwise, per-mode and overlap-product forms agree to 1e-10 "
                f"on 1e3 instances (worst spread {worst:.2e})")


def test_criterion_04_fock_oracle_reproduces_coherent_outputs():
    bs = make_beam_splitter(0.5)
    worst = 1.0
    for _ in range(200):
        alpha, beta = random_amp(1.5), random_amp(1.5)
        joint = product_state(coherent_fock(alpha, 40), coherent_fock(beta, 40))
        evolved = apply_bs_fock(joint, 0.5)
        gamma = apply_network(bs, CoherentRegister([alpha, beta])).amplitudes
        target = product_state(coherent_fock(gamma[0], 40), coherent_fock(gamma[1], 40))
        f = fidelity(evolved, target)
        worst = min(worst, f)
        assert f >= 1.0 - 1e-8
    announce(4, f"number-basis beam splitter matches the analytic coherent output "
                f"with fidelity >= 1-1e-8 on 200 cases (worst {worst:.12f})")


def test_criterion_05_squeezed_parity_flags_unequal_squeezing():
    for xi in (0.1, 0.2, 0.3, 0.2j, -0.25):
        assert odd_photon_probability(xi, xi, 40) < 1e-10
    unequal = [(0.2, 0.1), (0.3, 0.2), (0.2, -0.2), (0.25j, 0.1j)]
    for xi1, xi2 in unequal:
        assert odd_photon_probability(xi1, xi2, 40) > 1e-10
    announce(5, "equal squeezing keeps odd-photon probability below 1e-10; "
                "unequal squeezing makes it strictly positive")


def test_criterion_06_vacuum_attack_optimal_up_to_sqrt2():
    for amp in np.linspace(0.0, SQRT2, 50):
        result = optimal_coherent_attack(float(amp))
        assert result.beta_star <= 1e-6, (amp, result)
    for amp in np.linspace(1.43, 5.0, 50):
        result = optimal_coherent_attack(float(amp))
        assert result.beta_star > 0.0, (amp, result)
    at_one = optimal_coherent_attack(1.0)
    assert abs(at_one.p_star - math.exp(-0.5)) <= 1e-9
    announce(6, "optimal false key is the vacuum exactly up to amplitude sqrt(2), "
                "nonzero beyond it, and p*(1) = exp(-1/2) to 1e-9")


def test_criterion_07_large_amplitude_pass_probability_asymptote():
    products = {}
    for amp in (5.0, 8.0, 10.0):
        result = optimal_coherent_attack(amp)
        products[amp] = result.p_star * math.sqrt(2.0 * math.pi) * amp
        assert 0.9 <= products[amp] <= 1.1, products
    announce(7, "p*(amp) sqrt(2 pi) amp stays in [0.9, 1.1] at amp = 5, 8, 10 "
                f"(values {[round(v, 4) for v in products.values()]})")


def test_criterion_08_entropy_eigenvalues_match_diagonalization():
    for n in range(2, 9):
        for amp in (0.5, 1.0, 2.0):
            analytic = holevo_entropy_finite(amp, n)
            numeric = entropy_by_diagonalization(amp, n, cutoff=30)
            ana = np.sort(np.array(analytic.eigenvalues))[::-1]
            num = np.sort(np.array(numeric.eigenvalues))[::-1][:n]
            assert np.max(np.abs(ana - num)) < 1e-6, (n, amp)
            assert abs(analytic.bits - numeric.bits) < 1e-6, (n, amp)
    # qualitative entropy curve: zero at zero, monotone, saturating at log2 N
    for n in (2, 3, 4, 5, 6):
        grid = [holevo_entropy_finite(a, n).bits for a in np.linspace(0.0, 5.0, 21)]
        assert grid[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a - 1e-9 for a, b in zip(grid, grid[1:]))
        assert abs(grid[-1] - math.log2(n)) < 0.05  # amp^2 = 25 endpoint
    announce(8, "analytic ensemble eigenvalues match diagonalization to 1e-6 for "
                "N in 2..8; entropy curves rise from 0 to log2 N within 0.05")


def test_criterion_09_phase_randomized_limit_and_stirling_form():
    for amp_sq in (10.0, 15.0, 25.0):
        exact = holevo_entropy_infinite(math.sqrt(amp_sq)).bits
        approx = stirling_entropy_approx(math.sqrt(amp_sq))
        assert abs(exact - approx) / exact < 0.05, amp_sq
    finite = holevo_entropy_finite(1.0, 64).bits
    infinite = holevo_entropy_infinite(1.0).bits
    assert abs(finite - infinite) < 1e-3
    announce(9, f"Stirling form within 5% of the exact phase-randomized entropy for "
                f"amp^2 >= 10; N = 64 alphabet within {abs(finite - infinite):.1e} "
                f"of the continuum value")


def test_criterion_10_verdict_splitting_probability_and_bound():
    start = time.perf_counter()
    single = simulate_dishonest_alice_center(
        AliceCenterAttack(positions=1, overlap=0.5), security_s=1.0, length=1,
        trials=100_000, rng=20)
    sigma = math.sqrt(0.25 / single.split.trials)
    assert abs(single.disagreement_rate - 0.5) <= 3.0 * sigma

    strong = simulate_dishonest_alice_center(
        AliceCenterAttack(positions=10, overlap=0.5), security_s=1.0, length=10,
        trials=1_000_000, rng=21)
    assert strong.bound == pytest.approx(2.0**-9)
    sigma10 = math.sqrt(max(strong.disagreement_rate * (1 - strong.disagreement_rate),
                            1e-12) / strong.split.trials)
    assert strong.disagreement_rate <= strong.bound + 3.0 * sigma10
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(10, f"overlap-1/2 attack splits verdicts at rate "
                 f"{single.disagreement_rate:.4f} (expect 0.5); at sM = 10 the rate "
                 f"{strong.disagreement_rate:.2e} respects the 2^-9 bound ({elapsed:.1f} s)")


def test_criterion_11_honest_distributed_exchange_is_lossless():
    for recipients in (2, 3):
        phases = RNG.integers(0, 8, size=8)
        alpha = private_key_amplitudes(phases, 8, 1.2)
        parties = distributed_exchange([alpha.copy() for _ in range(recipients)],
                                       rng=30 + recipients)
        for party in parties:
            assert not party.clicked
            assert np.max(np.abs(party.held - alpha)) <= 1e-12
    announce(11, "honest exchange for T = 2, 3 recipients: zero clicks everywhere "
                 "and exact key recovery to 1e-12")


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    invocations = [
        ["figure2", "--step", "0.2", "--format", "csv"],
        ["figure4", "--N", "2", "3", "--points", "6", "--format", "csv"],
        ["compare", "--alpha", "1,0", "--beta", "-1,0"],
        ["lockkey", "simulate", "--M", "5", "--trials", "2000", "--seed", "42"],
        ["pkd", "--scheme", "center", "--adversary", "alice-overlap-half",
         "--M", "4", "--s", "0.5", "--trials", "500", "--seed", "42"],
        ["pkd", "--scheme", "distributed", "--M", "4", "--trials", "50",
         "--seed", "7", "--format", "csv"],
    ]
    for i, args in enumerate(invocations):
        first = tmp_path / f"first_{i}"
        second = tmp_path / f"second_{i}"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), args
    announce(12, f"{len(invocations)} CLI invocations rerun byte-identically "
                 "under fixed seeds")
