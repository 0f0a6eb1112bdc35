import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0 as scipy_i0
from scipy.special import i0e as scipy_i0e

from qcompare import domain, lockkey
from qcompare.detection import IDEAL, DetectorModel, click_probabilities, trial_clicks
from qcompare.errors import InvariantError
from qcompare.lockkey import (
    AttackOptimum,
    EntropyReport,
    KeyString,
    _golden_max,
    analytic_pass_probability,
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
from support import three_sigma, traced_peak

SQRT2 = math.sqrt(2.0)
# Largest key amplitude whose attack scan fits the work budget.
MAX_ATTACK_AMPLITUDE = 414.165


def full_scan_attack(amplitude):
    """Reference: the optimum from the whole 1e-3 grid, every value by the array Bessel path."""

    def p(beta):
        return float(attack_pass_probability(amplitude, np.array([beta]))[0])

    step = 1e-3
    grid = np.arange(0.0, 2.0 * amplitude + 5.0 + step, step)
    values = attack_pass_probability(amplitude, grid)
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    beta_ref, p_ref = _golden_max(p, float(lo), float(hi))
    candidates = [(0.0, p(0.0)), (float(grid[best]), float(values[best])), (beta_ref, p_ref)]
    p_star = max(v for _, v in candidates)
    beta_star = min(b for b, v in candidates if v >= p_star - 1e-15)
    return AttackOptimum(beta_star=beta_star, p_star=p_star)


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

    def test_single_test_clicks_with_the_pass_rate_probabilities(self):
        # One trial_clicks draw of the click probabilities lock_test_pass_rate counts.
        model = DetectorModel(efficiency=0.7, dark_mean=0.05)
        key = generate_key(6, 8, 1.0, rng=3)
        candidate = np.zeros(6)
        p = click_probabilities(np.abs(key.amplitudes() - candidate) ** 2 / 2, model)
        for seed in range(50):
            result = lock_test(key, candidate, model, rng=seed)
            assert result.clicks == tuple(trial_clicks(p, seed).tolist())
            assert result.passed == (not any(result.clicks))

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
        trials_per_key = 2000
        total = 0
        for k in range(n_phases):
            key = KeyString(n_phases, amp, (k,))
            stats = lock_test_pass_rate(key, np.full(1, beta), IDEAL,
                                        trials=trials_per_key, rng=k)
            total += stats.successes
        rate = total / (trials_per_key * n_phases)
        expected = attack_pass_probability(amp, beta, n_phases=n_phases)
        assert expected == pytest.approx(attack_pass_probability(amp, beta), abs=1e-10)
        assert abs(rate - expected) < three_sigma(expected, trials_per_key * n_phases)

    def test_pass_rate_memory_is_bounded_in_trials(self):
        # A full (trials, M) float table would need 512 MB here.  One block in
        # flight and one-byte counts take 3.5 MB; int64 counts took 10.5 MB.
        key = generate_key(64, 8, 0.12, rng=4)
        _, peak = traced_peak(lock_test_pass_rate, key, np.zeros(64), IDEAL, trials=1_000_000,
                              rng=5)
        assert peak <= 4e6, peak

    @pytest.mark.parametrize("length", [10**400, domain.WORK_BUDGET + 1],
                             ids=["10**400", "WORK_BUDGET+1"])
    def test_key_length_is_bounded_by_the_work_budget(self, length):
        # 10**400 once raised OverflowError, not ValueError.
        with pytest.raises(ValueError, match="the key"):
            photon_budget_ok(10.0, length, 1.0)
        with pytest.raises(ValueError, match="the key"):
            analytic_pass_probability(1.0, length)
        assert photon_budget_ok(float(domain.WORK_BUDGET), domain.WORK_BUDGET, 1.0)
        assert analytic_pass_probability(1.0, domain.WORK_BUDGET) == 1.0

    def test_photon_budget_flags_vacuum_forgery(self):
        assert photon_budget_ok(observed_mean_counts=10.2, length=10, amplitude=1.0)
        assert not photon_budget_ok(observed_mean_counts=0.0, length=10, amplitude=1.0)

    @pytest.mark.parametrize("counts, length, amplitude, message", [
        (math.nan, 10, 1.0, "observed mean counts"),
        (-1.0, 10, 1.0, "observed mean counts"),
        (10.0, 10, math.nan, "amplitude"),
        (10.0, -3, 1.0, "key length"),
        (10.0, 2.5, 1.0, "key length"),
    ])
    def test_photon_budget_rejects_inputs_outside_its_domain(self, counts, length, amplitude,
                                                              message):
        # NaN once returned False silently, and length -3 raised "math domain error".
        with pytest.raises(ValueError, match=message):
            photon_budget_ok(counts, length, amplitude)


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
        # The scalar path (Python floats) must give the array path's bits.
        edges = np.array([np.nextafter(15.0, -np.inf), np.nextafter(15.0, np.inf)])
        assert [bessel_i0_scaled(float(x)) for x in xs] == values.tolist()
        assert [bessel_i0_scaled(float(x)) for x in edges] == bessel_i0_scaled(edges).tolist()

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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, MAX_ATTACK_AMPLITUDE))
    @example(0.0)
    @example(SQRT2)
    @example(math.nextafter(SQRT2, 0.0))
    @example(math.nextafter(SQRT2, math.inf))
    @example(1.43)
    @example(38.6)  # just above it both ends of the grid underflow to 0
    @example(40.0)
    @example(414.16)
    @example(MAX_ATTACK_AMPLITUDE)  # the largest accepted; test_domain pins 1e6 as rejected
    def test_property_equals_the_full_scan(self, amplitude):
        assert optimal_coherent_attack(amplitude) == full_scan_attack(amplitude)

    def test_scans_a_small_part_of_the_grid(self, monkeypatch):
        # The whole 1e-3 grid at amplitude 20 has 44 601 points.
        seen = []

        def counting(amplitude, beta_mag):
            seen.append(np.size(beta_mag) if np.ndim(beta_mag) else 0)
            return attack_pass_probability(amplitude, beta_mag)

        monkeypatch.setattr(lockkey, "attack_pass_probability", counting)
        assert optimal_coherent_attack(20.0) == full_scan_attack(20.0)
        assert 0 < sum(seen) <= 1000

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

    @pytest.mark.parametrize("p_single,limit", [(0.5, 0.0), (1 - 2**-53, 0.0), (0.0, 0.0),
                                                (1.0, 1.0)])
    @pytest.mark.parametrize("length", [2**63, 2**64 + 1, 10**400])
    def test_lengths_beyond_the_float_range(self, p_single, limit, length):
        # p ** length raised OverflowError ("int too large to convert to float") at 10**400.
        assert forgery_string_probability(p_single, length) == limit

    def test_validation(self):
        with pytest.raises(ValueError):
            forgery_string_probability(1.2, 3)
        with pytest.raises(ValueError):
            forgery_string_probability(0.5, 0)


class TestAnalyticPassProbability:
    ATTACKS = [None, 0.0, 0.8, 3.0]  # false-key magnitudes; None is the key, 0.0 the vacuum

    @pytest.mark.parametrize("beta", ATTACKS)
    def test_ideal_detector_is_the_forgery_probability_bit_for_bit(self, beta):
        for amp, m in ((1.0, 10), (0.12, 64), (2.5, 3)):
            expected = 1.0 if beta is None else forgery_string_probability(
                attack_pass_probability(amp, beta), m)
            assert analytic_pass_probability(amp, m, beta, IDEAL) == expected

    @pytest.mark.parametrize("beta", ATTACKS)
    def test_equals_the_average_of_exact_per_key_probabilities(self, beta):
        # Each phase alphabet's key average, exact for one position and so for M.
        amp, m, model = 1.3, 4, DetectorModel(efficiency=0.7, dark_mean=0.05)
        phases = np.exp(2j * np.pi * np.arange(4096) / 4096)
        candidate = amp * phases if beta is None else np.full(4096, beta)
        per_position = np.exp(-model.dark_mean
                              - model.efficiency * np.abs(amp * phases - candidate) ** 2 / 2)
        assert analytic_pass_probability(amp, m, beta, model) == pytest.approx(
            np.mean(per_position) ** m, rel=1e-12)

    @pytest.mark.parametrize("beta", ATTACKS[:2])
    def test_matches_the_monte_carlo_rate(self, beta):
        # The key and the vacuum pass alike whatever the key's phases.
        m, model, trials = 6, DetectorModel(efficiency=0.5, dark_mean=0.01), 100_000
        key = generate_key(m, 8, 1.0, rng=40)
        candidate = key.amplitudes() if beta is None else np.full(m, beta)
        p = analytic_pass_probability(1.0, m, beta, model)
        stats = lock_test_pass_rate(key, candidate, model, trials=trials, rng=41)
        assert abs(stats.rate - p) < 5 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf, 1e101])
    def test_beta_outside_its_domain_rejected(self, beta):
        with pytest.raises(ValueError, match="attack magnitude"):
            analytic_pass_probability(1.0, 4, beta, DetectorModel(efficiency=1e-4))

    def test_key_passes_unless_a_dark_count_fires(self):
        model = DetectorModel(efficiency=0.2, dark_mean=0.02)
        assert analytic_pass_probability(5.0, 16, None, model) == math.exp(-16 * 0.02)


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

    @pytest.mark.parametrize("bits,eigenvalues,message", [
        (-1e-9, (1.0,), "negative entropy"),
        (0.5, (0.5, 0.4), "eigenvalues sum to"),
    ], ids=["negative-bits", "unnormalized"])
    def test_report_invariants(self, bits, eigenvalues, message):
        with pytest.raises(InvariantError, match=message):
            EntropyReport(bits=bits, eigenvalues=eigenvalues)

    @pytest.mark.parametrize("amplitude,n,message", [
        (1 + 1j, 3, "imaginary part"),
        (1j, 2, "negative eigenvalue"),
    ], ids=["complex-square", "negative-square"])
    def test_finite_entropy_invariants(self, amplitude, n, message, monkeypatch):
        # Past the domain guard, a complex a^2 leaves the phase mixture non-Hermitian,
        # and a^2 = -1 makes it indefinite: (1 - e^2) / 2 at N = 2.
        monkeypatch.setattr(domain, "magnitude", lambda *args, **kwargs: amplitude)
        with pytest.raises(InvariantError, match=message):
            holevo_entropy_finite(1.0, n)
