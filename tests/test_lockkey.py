import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0 as scipy_i0
from scipy.special import i0e as scipy_i0e

from qcompare.detection import IDEAL
from qcompare.lockkey import (
    AttackSpec,
    KeyString,
    attack_candidate,
    attack_pass_probability,
    bessel_i0_scaled,
    entropy_by_diagonalization,
    forgery_string_probability,
    generate_key,
    holevo_entropy_finite,
    holevo_entropy_infinite,
    lock_test,
    lock_test_pass_rate,
    optimal_coherent_attack,
    photon_budget_ok,
    stirling_entropy_approx,
)

SQRT2 = math.sqrt(2.0)


def three_sigma(p, n):
    return 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)


class TestKeyGeneration:
    def test_phase_indices_uniform(self):
        key = generate_key(10_000, 2, 1.0, rng=3)
        ones = sum(key.phases)
        assert abs(ones / 10_000 - 0.5) < three_sigma(0.5, 10_000)

    def test_key_and_lock_share_the_string(self):
        key = generate_key(5, 8, 1.0, rng=1)
        lock = KeyString(key.n_phases, key.amplitude, key.phases)
        assert np.allclose(key.amplitudes(), lock.amplitudes())

    def test_seed_reproducibility(self):
        assert generate_key(32, 8, 1.0, rng=9).phases == generate_key(32, 8, 1.0, rng=9).phases

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_key(0, 8, 1.0)
        with pytest.raises(ValueError):
            generate_key(4, 1, 1.0)
        with pytest.raises(ValueError):
            KeyString(4, 1.0, (0, 4))


class TestLockTest:
    def test_matching_key_always_passes_and_is_recovered(self):
        key = generate_key(8, 8, 1.2, rng=5)
        for seed in range(20):
            result = lock_test(key, key.amplitudes(), IDEAL, rng=seed)
            assert result.passed
            assert all(c == 0 for c in result.clicks)
            assert np.allclose(result.recovered, key.amplitudes(), atol=1e-12)

    def test_vacuum_attack_pass_rate(self):
        key = generate_key(5, 8, 1.0, rng=2)
        stats = lock_test_pass_rate(key, np.zeros(5), IDEAL, trials=100_000, rng=21)
        expected = math.exp(-5 * 1.0**2 / 2)
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)

    def test_single_flipped_position(self):
        amp = 2.0
        key = generate_key(6, 4, amp, rng=7)
        candidate = key.amplitudes().copy()
        candidate[2] = -candidate[2]
        stats = lock_test_pass_rate(key, candidate, IDEAL, trials=200_000, rng=8)
        expected = math.exp(-abs(2 * amp) ** 2 / 2)  # e^-8 at the flipped position
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)

    def test_mismatched_candidate_recovery_is_the_average(self):
        key = generate_key(3, 8, 1.0, rng=4)
        candidate = np.zeros(3)
        result = lock_test(key, candidate, IDEAL, rng=0)
        assert np.allclose(result.recovered, key.amplitudes() / 2, atol=1e-12)

    def test_length_mismatch_rejected(self):
        key = generate_key(4, 8, 1.0, rng=0)
        with pytest.raises(ValueError):
            lock_test(key, np.zeros(5), IDEAL, rng=0)

    def test_coherent_attack_matches_phase_average(self):
        # enumerate every key phase of a dense alphabet so the empirical rate
        # estimates the discrete phase average exactly
        amp, beta, n_phases = 1.0, 0.8, 64
        spec = AttackSpec("coherent", magnitude=beta)
        trials_per_key = 2000
        total = 0
        for k in range(n_phases):
            key = KeyString(n_phases, amp, (k,))
            stats = lock_test_pass_rate(key, attack_candidate(spec, 1), IDEAL,
                                        trials=trials_per_key, rng=k)
            total += stats.successes
        rate = total / (trials_per_key * n_phases)
        expected = attack_pass_probability(amp, beta, n_phases=n_phases)
        assert expected == pytest.approx(attack_pass_probability(amp, beta), abs=1e-10)
        assert abs(rate - expected) < three_sigma(expected, trials_per_key * n_phases)

    def test_pass_rate_memory_is_bounded_in_trials(self):
        # a full (trials, M) float table would need 512 MB here
        key = generate_key(64, 8, 0.12, rng=4)
        tracemalloc.start()
        try:
            lock_test_pass_rate(key, np.zeros(64), IDEAL, trials=1_000_000, rng=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_photon_budget_flags_vacuum_forgery(self):
        assert photon_budget_ok(observed_mean_counts=10.2, length=10, amplitude=1.0)
        assert not photon_budget_ok(observed_mean_counts=0.0, length=10, amplitude=1.0)


def bessel_i0(x):
    """I0(x) through the package's scaled form, exp(x) * (exp(-x) I0(x))."""
    return math.exp(x) * bessel_i0_scaled(x)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_against_defining_integral(self):
        for x in (0.3, 1.0, 2.5, 7.0, 14.9, 15.1, 30.0, 80.0):
            oracle = quad(lambda th: math.exp(x * math.cos(th)), 0.0, 2 * math.pi,
                          epsabs=0.0, epsrel=1e-12)[0] / (2 * math.pi)
            assert abs(bessel_i0(x) - oracle) < 1e-10 * oracle

    def test_against_scipy(self):
        xs = np.linspace(0.01, 60.0, 200)
        for x in xs:
            assert bessel_i0(float(x)) == pytest.approx(float(scipy_i0(x)), rel=1e-12)

    def test_scaled_array_against_scipy(self):
        xs = np.concatenate([np.linspace(0.0, 900.0, 90_001), [14.999999, 15.0, 15.000001]])
        values = bessel_i0_scaled(xs)
        assert values.shape == xs.shape
        assert np.max(np.abs(values / scipy_i0e(xs) - 1.0)) < 1e-12
        grid = xs[:6].reshape(2, 3)
        assert bessel_i0_scaled(grid).shape == (2, 3)
        assert [bessel_i0_scaled(float(x)) for x in xs[::997]] == values[::997].tolist()

    def test_asymptotic_normalization(self):
        x = 50.0
        assert bessel_i0(x) * math.sqrt(2 * math.pi * x) * math.exp(-x) == pytest.approx(
            1.0, abs=1e-2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bessel_i0_scaled(-1.0)


class TestAttackPassProbability:
    def test_vacuum_limit(self):
        for amp in (0.5, 1.0, 2.0):
            assert attack_pass_probability(amp, 0.0) == pytest.approx(
                math.exp(-amp**2 / 2), abs=1e-15)

    def test_zero_key_amplitude(self):
        assert attack_pass_probability(0.0, 1.3) == pytest.approx(
            math.exp(-1.3**2 / 2), abs=1e-15)

    def test_large_amplitude_asymptote(self):
        amp = 3.0
        value = attack_pass_probability(amp, amp)
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi * amp * amp), rel=0.15)

    def test_closed_form_equals_quadrature(self):
        # direct phase average of the two-state pass probability
        for amp, beta in ((0.5, 0.3), (1.0, 1.0), (2.0, 1.5), (4.0, 3.9)):
            oracle = quad(
                lambda th: math.exp(-0.5 * abs(amp * np.exp(1j * th) - beta) ** 2),
                0.0, 2 * math.pi, epsabs=0.0, epsrel=1e-12)[0] / (2 * math.pi)
            assert abs(attack_pass_probability(amp, beta) - oracle) < 1e-9

    def test_discrete_average_converges_to_continuous(self):
        amp, beta = 1.2, 0.9
        continuous = attack_pass_probability(amp, beta)
        diffs = [abs(attack_pass_probability(amp, beta, n_phases=n) - continuous)
                 for n in (4, 8, 16, 32)]
        assert diffs[-1] < 1e-10
        assert all(b <= a + 1e-15 for a, b in zip(diffs, diffs[1:]))


class TestOptimalAttack:
    def test_vacuum_is_best_below_threshold(self):
        for amp in np.linspace(0.0, SQRT2, 50):
            result = optimal_coherent_attack(float(amp))
            assert result.beta_star <= 1e-6
            assert result.p_star == pytest.approx(math.exp(-amp * amp / 2), rel=1e-9)

    def test_threshold_value(self):
        result = optimal_coherent_attack(SQRT2)
        assert result.beta_star <= 1e-6
        assert result.p_star == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_nonzero_optimum_above_threshold(self):
        for amp in (1.5, 2.0, 3.0, 5.0):
            result = optimal_coherent_attack(amp)
            assert 0.0 < result.beta_star < amp
            assert result.p_star > attack_pass_probability(amp, 0.0)

    def test_second_derivative_sign_change_at_threshold(self):
        h = 1e-3

        def curvature(amp):
            p0 = attack_pass_probability(amp, 0.0)
            ph = attack_pass_probability(amp, h)
            return (ph - p0) / h**2

        assert curvature(1.35) < 0
        assert curvature(1.45) > 0

    def test_matches_recorded_scalar_scan(self):
        # (amplitude, beta_star, p_star) from the scalar scan (one Bessel call per grid
        # point) at the acceptance-criterion 6/7 amplitudes and at 0.8, 4, 8, 12, 16, 20
        table = json.loads((Path(__file__).parent / "data" / "attack_optima.json").read_text())
        for amp, beta_star, p_star in table:
            result = optimal_coherent_attack(amp)
            assert abs(result.beta_star - beta_star) <= 1e-12, amp
            assert abs(result.p_star - p_star) <= 1e-15 * p_star, amp

    def test_large_amplitude_pass_probability(self):
        result = optimal_coherent_attack(5.0)
        assert abs(result.beta_star - 5.0) < 0.5
        assert result.p_star == pytest.approx(1 / (math.sqrt(2 * math.pi) * 5.0), rel=0.10)


class TestForgeryString:
    def test_trivial_cases(self):
        assert forgery_string_probability(1.0, 17) == 1.0
        assert forgery_string_probability(math.exp(-1), 20) == pytest.approx(
            math.exp(-20), rel=1e-12)

    def test_matches_vacuum_attack_monte_carlo(self):
        amp, m = 1.0, 5
        key = generate_key(m, 8, amp, rng=31)
        stats = lock_test_pass_rate(key, np.zeros(m), IDEAL, trials=100_000, rng=32)
        p_single = attack_pass_probability(amp, 0.0)
        expected = forgery_string_probability(p_single, m)
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            forgery_string_probability(1.2, 3)
        with pytest.raises(ValueError):
            forgery_string_probability(0.5, 0)


class TestEntropyBounds:
    def test_zero_amplitude_has_no_information(self):
        assert holevo_entropy_finite(0.0, 4).bits == pytest.approx(0.0, abs=1e-12)
        assert holevo_entropy_infinite(0.0).bits == 0.0

    def test_large_amplitude_approaches_alphabet_entropy(self):
        report = holevo_entropy_finite(5.0, 4)
        assert abs(report.bits - 2.0) < 0.05

    def test_eigenvalues_match_diagonalization(self):
        for n in (2, 3, 5, 8):
            for amp in (0.5, 1.0, 2.0):
                analytic = holevo_entropy_finite(amp, n)
                numeric = entropy_by_diagonalization(amp, n, cutoff=30)
                assert abs(analytic.bits - numeric.bits) < 1e-6
                top = sorted(numeric.eigenvalues, reverse=True)[:n]
                ana = sorted(analytic.eigenvalues, reverse=True)
                assert np.max(np.abs(np.array(top) - np.array(ana))) < 1e-6

    def test_entropy_monotone_in_amplitude(self):
        for n in (2, 5):
            values = [holevo_entropy_finite(a, n).bits for a in np.linspace(0, 3, 16)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_entropy_bounded_by_log2_n(self):
        for n in (2, 3, 6):
            for amp in (0.3, 1.0, 4.0):
                report = holevo_entropy_finite(amp, n)
                assert -1e-12 <= report.bits <= math.log2(n) + 1e-9

    def test_finite_alphabet_converges_to_phase_randomized(self):
        finite = holevo_entropy_finite(1.0, 64).bits
        infinite = holevo_entropy_infinite(1.0).bits
        assert abs(finite - infinite) < 1e-3

    def test_infinite_alphabet_tracks_stirling_form(self):
        for amp_sq in (10.0, 16.0, 25.0):
            exact = holevo_entropy_infinite(math.sqrt(amp_sq)).bits
            approx = stirling_entropy_approx(math.sqrt(amp_sq))
            assert abs(exact - approx) / exact < 0.05

    def test_stirling_monotone_and_guarded(self):
        assert stirling_entropy_approx(2.0) > stirling_entropy_approx(1.0)
        with pytest.raises(ValueError):
            stirling_entropy_approx(0.0)

    def test_eigenvalue_reports_are_normalized(self):
        report = holevo_entropy_finite(1.3, 6)
        assert sum(report.eigenvalues) == pytest.approx(1.0, abs=1e-10)
        assert min(report.eigenvalues) >= 0.0
