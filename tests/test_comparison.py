import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompare import comparison
from qcompare.comparison import (
    FORM_AGREEMENT_TOL,
    MAX_UNIVERSAL_MODES,
    coherent_overlap,
    compare_report,
    multiport_success_forms,
    no_click_probabilities,
    p_success_conjugate,
    p_success_multiport,
    p_success_phase,
    p_success_two,
    p_success_universal,
    p_symm,
    unbalanced_test,
    verify_amgm_inequality,
)
from qcompare.detection import IDEAL, run_trials
from qcompare.domain import MAX_AMPLITUDE
from qcompare.errors import InvariantError
from qcompare.linear import CoherentRegister, make_balanced_multiport

RNG = np.random.default_rng(31415)


def random_tuple(n, scale=2.0):
    return scale * (RNG.standard_normal(n) + 1j * RNG.standard_normal(n)) / np.sqrt(2)


def _seeded_cluster(n, seed, centre, spread):
    """n amplitudes around ``centre`` with sum_j |a_j - mean|^2 about ``spread``^2."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return centre * np.exp(2j * math.pi * rng.random()) + spread * z / math.sqrt(2 * n)


class TestTwoState:
    def test_identical_states_never_flagged(self):
        assert p_success_two(0.4 + 0.1j, 0.4 + 0.1j) == 0.0

    def test_approaches_one_for_distant_states(self):
        assert p_success_two(5.0, -5.0) >= 1 - 1e-12
        values = [p_success_two(0.0, d) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_canonical_value(self):
        assert p_success_two(1.0, -1.0) == pytest.approx(1 - math.exp(-2), abs=1e-12)

    def test_monte_carlo_agreement(self):
        stats = run_trials(CoherentRegister([1.0, -1.0]), make_balanced_multiport(2),
                           [1], IDEAL, trials=100_000, rng=2)
        p = p_success_two(1.0, -1.0)
        assert abs(stats.rate - p) < 3 * math.sqrt(p * (1 - p) / stats.trials)


class TestPhaseOnly:
    def test_zero_phase_difference(self):
        assert p_success_phase(1.0, 0.0) == 0.0

    def test_pi_value(self):
        assert p_success_phase(1.0, math.pi) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_resolution_scales_inversely_with_amplitude(self):
        # delta = c / amplitude pins the probability at 1 - exp(-c^2/4)
        c = 0.5
        limit = 1 - math.exp(-c * c / 4)
        values = [p_success_phase(a, c / a) for a in (50.0, 100.0, 400.0)]
        assert all(abs(v - limit) < 1e-6 for v in values)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            p_success_phase(-1.0, 0.3)


class TestConjugate:
    def test_opposite_states_silent(self):
        assert p_success_conjugate(0.7j, -0.7j) == 0.0

    def test_equal_states(self):
        assert p_success_conjugate(1.0, 1.0) == pytest.approx(1 - math.exp(-2), abs=1e-12)

    def test_mirror_identity(self):
        for _ in range(20):
            a, b = random_tuple(2)
            assert p_success_conjugate(a, -b) == pytest.approx(p_success_two(a, b), abs=1e-12)


class TestUnbalanced:
    def test_balanced_limit(self):
        a, b = 0.9 - 0.2j, 0.1 + 0.5j
        m0, m1 = unbalanced_test(a, b, 0.5)
        assert m0 == pytest.approx(abs(a + b) ** 2 / 2, abs=1e-12)
        assert m1 == pytest.approx(abs(a - b) ** 2 / 2, abs=1e-12)

    def test_cancellation_condition(self):
        t, theta = 0.3, 0.7
        alpha = 0.8 + 0.2j
        beta = -math.sqrt(t / (1 - t)) * np.exp(1j * theta) * alpha
        m0, _ = unbalanced_test(alpha, beta, t, theta)
        assert m0 < 1e-24

    def test_energy_conservation(self):
        alpha, beta = 1.0, 1.0j
        m0, m1 = unbalanced_test(alpha, beta, 0.3, math.pi / 2)
        assert m0 + m1 == pytest.approx(abs(alpha) ** 2 + abs(beta) ** 2, abs=1e-12)


class TestMultiport:
    def test_all_equal_silent(self):
        assert p_success_multiport([0.3 + 1j] * 4) == 0.0

    def test_reduces_to_two_state_form(self):
        for _ in range(30):
            a, b = random_tuple(2)
            assert p_success_multiport([a, b]) == pytest.approx(
                p_success_two(a, b), abs=1e-12)

    def test_three_forms_agree_on_random_inputs(self):
        for _ in range(200):
            n = int(RNG.integers(2, 7))
            forms = multiport_success_forms(random_tuple(n))
            assert max(forms) - min(forms) < 1e-10

    def test_no_click_probabilities_match_network_means(self):
        amps = np.array([1.0, 1.0, -1.0])
        p0 = no_click_probabilities(amps)
        net = make_balanced_multiport(3)
        means = np.abs(net.matrix.conj().T @ amps) ** 2
        assert np.allclose(p0, np.exp(-means), atol=1e-12)
        assert p_success_multiport(amps) == pytest.approx(1 - np.prod(p0[1:]), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 1024])
    def test_no_click_probabilities_match_dense_multiport_entrywise(self, n):
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p0 = no_click_probabilities(amps)
        dense = np.exp(-np.abs(make_balanced_multiport(n).matrix.conj().T @ amps) ** 2)
        assert np.max(np.abs(p0 - dense)) < 1e-12
        if n > 2:
            # Reversing modes 1..N-1 (an ifft in place of the fft) would fail above.
            assert np.max(np.abs(p0[1:] - p0[:0:-1])) > 1e-3

    def test_monte_carlo_agreement(self):
        cases = {
            2: [0.75, -0.75],
            3: [0.9, -0.3 + 0.4j, 0.1],
            4: [0.5, 0.5j, -0.5, 0.2],
        }
        for n, amps in cases.items():
            p = p_success_multiport(amps)
            stats = run_trials(CoherentRegister(amps), make_balanced_multiport(n),
                               range(1, n), IDEAL, trials=100_000, rng=n)
            assert abs(stats.rate - p) < 3 * math.sqrt(p * (1 - p) / stats.trials)

    def test_too_few_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            p_success_multiport([1.0])

    @pytest.mark.parametrize("amps", [[np.nextafter(MAX_AMPLITUDE, math.inf), 0.0],
                                      [1e160, 0.0, 1.0], [0.0, 1e200j]])
    def test_amplitudes_beyond_the_bound_rejected(self, amps):
        with pytest.raises(ValueError, match="MAX_AMPLITUDE"):
            compare_report(amps)

    @pytest.mark.parametrize("amps", [[MAX_AMPLITUDE, 0.0], [MAX_AMPLITUDE, 0.0, 1.0],
                                      np.full(2000, MAX_AMPLITUDE * 1j)])
    def test_amplitudes_at_the_bound_stay_finite(self, amps):
        with np.errstate(over="raise", invalid="raise"):
            report = compare_report(amps)
        assert all(math.isfinite(f) for f in report.forms)


class TestUniversal:
    def test_identical_states(self):
        assert p_success_universal([0.6, 0.6]) == 0.0

    def test_two_state_closed_form(self):
        assert p_success_universal([1.0, -1.0]) == pytest.approx(
            (1 - math.exp(-4)) / 2, abs=1e-12)
        for _ in range(20):
            a, b = random_tuple(2)
            expect = 0.5 * (1 - abs(coherent_overlap(a, b)) ** 2)
            assert p_success_universal([a, b]) == pytest.approx(expect, abs=1e-12)

    def test_never_exceeds_half_for_two_states(self):
        for _ in range(100):
            assert p_success_universal(random_tuple(2)) <= 0.5 + 1e-12

    def test_three_state_expansion(self):
        # six-term symmetric-subspace expansion written out explicitly
        a = random_tuple(3)
        g01 = coherent_overlap(a[0], a[1])
        g12 = coherent_overlap(a[1], a[2])
        g20 = coherent_overlap(a[2], a[0])
        expect = (1 + abs(g01) ** 2 + abs(g12) ** 2 + abs(g20) ** 2
                  + 2 * (g01 * g12 * g20).real) / 6
        assert p_symm(a) == pytest.approx(expect, abs=1e-12)

    def test_factorial_guard(self):
        with pytest.raises(ValueError):
            p_success_universal(np.ones(9))


class TestDominance:
    def test_equality_at_identical_inputs(self):
        report = verify_amgm_inequality([0.8] * 3)
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(1.0)
        assert report.holds

    def test_strict_for_distinct_pairs(self):
        report = verify_amgm_inequality([1.0, -1.0])
        assert report.lhs < report.rhs
        assert report.holds

    def test_random_sweep(self):
        for _ in range(1000):
            n = int(RNG.integers(2, 6))
            report = verify_amgm_inequality(random_tuple(n))
            assert report.holds


class TestSymmetries:
    def test_permutation_invariance(self):
        amps = random_tuple(4)
        perm = RNG.permutation(4)
        assert p_success_multiport(amps[perm]) == pytest.approx(
            p_success_multiport(amps), abs=1e-12)
        assert p_success_universal(amps[perm]) == pytest.approx(
            p_success_universal(amps), abs=1e-12)

    def test_global_phase_covariance(self):
        amps = random_tuple(3)
        rotated = amps * np.exp(1j * 1.234)
        assert p_success_multiport(rotated) == pytest.approx(
            p_success_multiport(amps), abs=1e-12)
        assert p_success_universal(rotated) == pytest.approx(
            p_success_universal(amps), abs=1e-12)


class TestReport:
    def test_report_fields(self):
        report = compare_report([1.0, -1.0])
        assert report.p_succ_coherent == pytest.approx(1 - math.exp(-2), abs=1e-12)
        assert report.p_succ_universal == pytest.approx((1 - math.exp(-4)) / 2, abs=1e-12)
        assert len(report.p_no_click) == 2
        assert report.p_succ_coherent >= report.p_succ_universal

    def test_report_carries_forms_and_dominance(self):
        amps = [0.9, -0.3 + 0.4j, 0.1]
        report = compare_report(amps)
        assert report.forms == multiport_success_forms(amps)
        assert report.p_succ_coherent == p_success_multiport(amps)
        assert report.p_succ_universal == p_success_universal(amps)
        assert report.amgm == verify_amgm_inequality(amps)
        assert report.p_no_click == tuple(no_click_probabilities(amps))

    def test_universal_fields_empty_above_the_permutation_limit(self):
        report = compare_report(random_tuple(MAX_UNIVERSAL_MODES + 1))
        assert report.p_succ_universal is None and report.amgm is None
        assert len(report.p_no_click) == MAX_UNIVERSAL_MODES + 1


class TestLogDomainForms:
    def test_forms_agree_for_a_thousand_close_amplitudes(self):
        # The product of N^2 overlaps underflows here; its N-th root does not.
        n = 1024
        rng = np.random.default_rng(1024)
        amps = complex(*rng.standard_normal(2)) + (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
        report = compare_report(amps)
        assert max(report.forms) - min(report.forms) <= FORM_AGREEMENT_TOL
        assert 0.5 < report.p_succ_coherent < 1.0

    @pytest.mark.parametrize("n", [4000, 10_000])
    def test_forms_agree_in_bounded_memory_at_thousands_of_modes(self, n):
        rng = np.random.default_rng(n)
        amps = complex(*rng.standard_normal(2)) + (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
        tracemalloc.start()
        try:
            report = compare_report(amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One N x N complex table alone would take 256 MB at N = 4000.
        assert peak < 8e6
        assert max(report.forms) - min(report.forms) <= FORM_AGREEMENT_TOL
        assert comparison._agreed(report.forms) == report.p_succ_coherent
        assert 0.5 < report.p_succ_coherent < 1.0

    @pytest.mark.parametrize("amps,expected", [
        ([1e15, 1e15 + 1, 1e15], -math.expm1(-2 / 3)),
        ([1e15, 1e15 + 1e5, 1e15], 1.0),
    ])
    def test_tight_cluster_far_from_the_origin(self, amps, expected):
        # Centring on the rounded mean would move p_succ by 1e-2 in the first
        # case; in the second the overlap product's exponent overflowed exp.
        assert p_success_multiport(amps) == pytest.approx(expected, abs=1e-15)

    def test_nan_probability_is_an_invariant_failure(self):
        # NaN must not be clamped into [0, 1] as if it were rounding noise.
        with pytest.raises(InvariantError, match="nan"):
            comparison._clamp_probability(math.nan)

    def test_far_cluster_keeps_its_gram_information(self):
        # Taken on the raw amplitudes, the Gram routes cancel overlaps of size
        # 1e30: the overlap product and p_symm read 0.0 for the first cluster,
        # and the permutation sum of the second overflowed to NaN.
        report = compare_report([1e15, 1e15 + 1, 1e15])
        assert report.forms[2] == pytest.approx(-math.expm1(-2 / 3), abs=1e-12)
        expected = 1 - (2 + 4 * math.exp(-1)) / 6  # the same cluster at the origin
        assert report.p_succ_universal == pytest.approx(expected, abs=1e-12)
        report = compare_report([1e15, 1e15 + 1e5, 1e15])
        assert report.p_succ_coherent == 1.0
        assert report.p_succ_universal == pytest.approx(2 / 3, abs=1e-15)

    def test_clustered_large_amplitudes_pass_the_residue_check(self):
        # Rounding leaves an imaginary log-sum residue of about 5e-12 here:
        # above 1e-12, but tiny next to sum |a_j| |a_l| ~ 1.3e6.
        amps = 20 + 20j + 0.01 * (np.random.default_rng(0).standard_normal(40) + 1j)
        forms = multiport_success_forms(amps)
        assert max(forms) - min(forms) <= FORM_AGREEMENT_TOL

    def test_many_equal_large_amplitudes_agree_within_rounding(self):
        # On the raw amplitudes the overlap product lost ~N |a|^2 eps = 3.2e-10
        # here and the forms spread by 2.3e-10; on a - a_0 they agree to 1e-10.
        n, shift = 2000, 1e-3
        amps = np.full(n, 27 * np.exp(1j * 9 * math.pi / 8))
        amps[-1] += shift
        forms = multiport_success_forms(amps)
        assert max(forms) - min(forms) <= FORM_AGREEMENT_TOL
        expected = -math.expm1(-(n - 1) / n * shift**2)
        assert p_success_multiport(amps) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 64])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_a_form_off_by_1e_8_still_raises(self, monkeypatch, n, which):
        amps = 30.0 * np.exp(2j * math.pi * np.arange(n) / n)
        honest = comparison._success_forms

        def perturbed(*args):
            forms = list(honest(*args))
            forms[which] += 1e-8
            return tuple(forms)

        monkeypatch.setattr(comparison, "_success_forms", perturbed)
        with pytest.raises(InvariantError, match="disagree"):
            compare_report(amps)
        with pytest.raises(InvariantError, match="disagree"):
            p_success_multiport(amps)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.integers(2, 64).flatmap(lambda n: st.lists(
            st.builds(lambda r, phi: r * np.exp(1j * phi),
                      st.floats(0.0, 30.0), st.floats(0.0, 2 * math.pi)),
            min_size=n, max_size=n)),
        st.builds(_seeded_cluster, st.integers(65, 2000), st.integers(0, 2**32 - 1),
                  st.floats(0.0, 30.0), st.floats(0.0, 30.0))))
    def test_forms_agree_and_multiport_dominates(self, amps):
        report = compare_report(amps)
        pairwise, per_mode, _ = report.forms
        assert 0.0 <= pairwise <= 1.0 and 0.0 <= per_mode <= 1.0
        assert max(report.forms) - min(report.forms) <= FORM_AGREEMENT_TOL
        if len(amps) <= MAX_UNIVERSAL_MODES:
            assert report.amgm.holds
            assert report.p_succ_universal <= report.p_succ_coherent + 1e-12
        else:
            assert report.amgm is None
