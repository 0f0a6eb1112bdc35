import math
import re

import numpy as np
import pytest

from qcompare import comparison, detection, domain, fock, linear, lockkey, pkd
from qcompare.domain import MAX_AMPLITUDE, WORK_BUDGET
from support import traced_peak

NAN = math.nan
VACUUM = fock.coherent_fock(0.0, 4)


class TestGuards:
    @pytest.mark.parametrize("guard", [
        lambda: domain.amplitudes([1.0, NAN]),
        lambda: domain.amplitudes([complex(0.0, NAN)], limit=math.inf),
        lambda: domain.magnitude(NAN, "x"),
        lambda: domain.magnitude(np.array([1.0, NAN]), "x"),
        lambda: domain.magnitude(NAN, "x", limit=math.inf),
        lambda: domain.integer(NAN, "x", 0),
        lambda: domain.fraction(NAN, "x"),
        lambda: domain.fraction(NAN, "x", positive=True),
        lambda: domain.size(NAN, "x"),
        lambda: domain.real(NAN, "x"),
    ])
    def test_nan_fails_every_guard(self, guard):
        with pytest.raises(ValueError):
            guard()

    def test_amplitudes(self):
        arr = domain.amplitudes([MAX_AMPLITUDE, -1j])
        assert arr.dtype == complex and arr.tolist() == [MAX_AMPLITUDE, -1j]
        with pytest.raises(ValueError, match=r"MAX_AMPLITUDE = 1e\+100, got \(1e\+200\+0j\)"):
            domain.amplitudes([0.0, 1e200])
        with pytest.raises(ValueError, match="length >= 2"):
            domain.amplitudes([1.0], minimum=2)
        with pytest.raises(ValueError):
            domain.amplitudes([math.inf], limit=math.inf)
        assert domain.amplitudes([1e300], limit=math.inf).tolist() == [1e300]
        with pytest.raises(ValueError):
            domain.amplitudes([complex(0.0, math.inf)])
        assert domain.amplitudes(2.0).tolist() == [2.0]
        with pytest.raises(ValueError, match=r"got shape \(1, 1\)"):
            domain.amplitudes([[1.0]])

    def test_amplitude(self):
        value = domain.amplitude(np.array([[2.0 - 1j]]), "a")
        assert type(value) is complex and value == 2.0 - 1j
        assert domain.amplitude(3, "a") == 3.0
        for several in ([0.5, 3.0], [], np.zeros((2, 1))):
            with pytest.raises(ValueError, match="a must be a single complex number"):
                domain.amplitude(several, "a")
        with pytest.raises(ValueError, match=r"a must be finite with magnitude <= 1\.0, got"):
            domain.amplitude(2.0, "a", limit=1.0)

    def test_magnitude(self):
        assert domain.magnitude(0, "x") == 0.0 and isinstance(domain.magnitude(2, "x"), float)
        assert domain.magnitude(MAX_AMPLITUDE, "x") == MAX_AMPLITUDE
        with pytest.raises(ValueError, match=r"x must lie in \[0, MAX_AMPLITUDE = 1e\+100\], got -1\.0"):
            domain.magnitude(-1, "x")
        with pytest.raises(ValueError, match=r"\(0, "):
            domain.magnitude(0.0, "x", positive=True)
        with pytest.raises(ValueError, match="got 3.0"):
            domain.magnitude(np.array([1.0, 3.0]), "x", limit=2.0)
        assert domain.magnitude(np.array([0.0, 2.0]), "x", limit=2.0).tolist() == [0.0, 2.0]

    def test_real(self):
        assert domain.real(np.float64(-2.5), "d") == -2.5 and isinstance(domain.real(3, "d"), float)
        assert domain.real(-1e308, "d") == -1e308
        for bad in (math.inf, -math.inf, 10**400, 1j, "3", None):
            with pytest.raises(ValueError, match="d must be a finite real number"):
                domain.real(bad, "d")

    @pytest.mark.parametrize("guard", [
        lambda: domain.magnitude(1j, "x"),
        lambda: domain.magnitude([1.0, 2j], "x"),
        lambda: domain.fraction(0.5 + 0j, "x"),
        lambda: domain.fraction(np.complex128(0.5), "x"),
        lambda: domain.magnitude(np.array([1.0, 1.0 + 1j]), "x"),
        lambda: domain.magnitude("abc", "x"),
        lambda: domain.magnitude("2", "x"),
        lambda: domain.magnitude(np.array(["1", "2"]), "x"),
        lambda: domain.fraction(np.array([0.5, "0.5"], dtype=object), "x"),
        lambda: domain.magnitude(np.array([1], dtype="m8[s]"), "x"),
        lambda: domain.magnitude(None, "x"),
    ])
    def test_non_real_value_is_named(self, guard):
        # A complex value, a string (even a numeric one), a duration or None lies in
        # no real interval; the guard names it.
        with pytest.raises(ValueError, match=r"x must lie in \[0, .*\], got "):
            guard()

    def test_integer(self):
        assert domain.integer(np.int64(3), "n", 0) == 3 and domain.integer(4.0, "n", 0) == 4
        for bad in (1.5, "3", math.inf, -1, 8):
            with pytest.raises(ValueError, match="n must be an integer"):
                domain.integer(bad, "n", 0, 7)

    def test_fraction(self):
        assert domain.fraction(0, "t") == 0.0 and domain.fraction(1, "t") == 1.0
        for bad in (-1e-300, 1.0 + 1e-15, math.inf):
            with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
                domain.fraction(bad, "t")
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            domain.fraction(0.0, "t", positive=True)
        assert domain.fraction(np.array([0.0, 0.5, 1.0]), "t").tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\], got -0\.5"):
            domain.fraction([0.25, -0.5, 2.0], "t")

    def test_size(self):
        domain.size(WORK_BUDGET, "x")
        for bad in (WORK_BUDGET + 1, math.inf, 10**400):
            with pytest.raises(ValueError, match="WORK_BUDGET"):
                domain.size(bad, "x")


class TestBudgetsRejectBeforeAllocating:
    @pytest.mark.parametrize("call", [
        lambda: fock.product_state(fock.coherent_fock(1.0, 5000), fock.coherent_fock(0.0, 5000)),
        lambda: fock._bs_windows(0.123, 171),
        lambda: fock.coherent_fock(1.0, 10**12),
        lambda: fock.su2_pass_state(2, 10**6),
        lambda: lockkey.optimal_coherent_attack(1e6),
        lambda: lockkey.holevo_entropy_finite(1.0, 10**5),
        lambda: lockkey.attack_pass_probability(1.0, np.zeros(10), n_phases=10**7),
        lambda: lockkey.generate_key(10**12, 8, 1.0),
        lambda: detection.bernoulli_counts([0.5], 10**12, 0),
        lambda: linear.make_balanced_multiport(10**5),
        lambda: pkd.trusted_center_distribute(lockkey.KeyString(8, 1.0, [0] * 1000),
                                              copies=2 * 10**4),
        lambda: pkd.distributed_exchange([np.ones(100)] * 50, rng=0),
        lambda: pkd.run_center_protocol(4, 8, 1.0, 2, 0.5, 10**9, "none"),
    ])
    def test_oversized_request_fails_by_estimate(self, call):
        def oversized():
            with pytest.raises(ValueError, match="WORK_BUDGET"):
                call()

        _, peak = traced_peak(oversized)
        assert peak < 1e6, peak


class TestLibraryInputs:
    def test_infinite_entropy_amplitude_is_bounded(self):
        # Past a^2 = 708.4 the Poisson series starts from a subnormal exp(-a^2):
        # it never ended at a = 26.9 and 30, and missed its sum check at 27.1.
        assert lockkey.holevo_entropy_infinite(26.6).bits > 0
        for amplitude in (26.9, 27.1, 30.0):
            with pytest.raises(ValueError, match="amplitude must lie in"):
                lockkey.holevo_entropy_infinite(amplitude)

    @pytest.mark.parametrize("call,message", [
        (lambda: comparison.coherent_overlap(1e200, 0.0), "amplitudes must be finite"),
        (lambda: comparison.p_success_two(NAN, 0.0), "got (nan+0j)"),
        (lambda: fock.coherent_fock(1e200, 10), "alpha must be finite with magnitude <= 37.6"),
        (lambda: lockkey.KeyString(8, 1.0, (0, 2.5)), "phase index must be an integer in [0, 7]"),
        (lambda: lockkey.KeyString(8, NAN, (0, 1)), "amplitude must lie in [0, MAX_AMPLITUDE"),
        (lambda: pkd.cheat_bound(math.nan, 10), "security parameter s must lie in (0, 1]"),
        (lambda: detection.stream(2**128), "seed must be an integer in [0, "),
        (lambda: detection.DetectorModel(dark_mean=10**400), "dark_mean must lie in [0, "),
        (lambda: linear.make_beam_splitter(10**400), "transmittance must lie in [0, 1]"),
        (lambda: linear.CoherentRegister([10**400, 1]), "got an integer beyond the float range"),
        (lambda: fock.recommended_cutoff(1e200), "alpha must be finite"),
        (lambda: fock.recommended_cutoff(math.inf), "got (inf+0j)"),
        (lambda: comparison.unbalanced_test(1e200, 0, 0.5), "amplitudes must be finite"),
        (lambda: detection.DetectorModel(efficiency=1j), "efficiency must lie in [0, 1], got 1j"),
        (lambda: linear.make_phase_shift([math.inf, 0.0]), "phase must be a finite real number"),
        (lambda: comparison.unbalanced_test(1, 0, 0.5, input_phase=math.inf),
         "phase must be a finite real number"),
        (lambda: lockkey.entropy_by_diagonalization(math.inf, 3, 20), "amplitude must be finite"),
        (lambda: pkd.verdicts([-1], 0.5, 10), "error counts must be non-negative integers"),
        (lambda: pkd.verdicts([0.5], 0.5, 10), "got an array of float64"),
        (lambda: linear.multiport_outputs([1.0, math.inf]), "multiport inputs must be finite"),
        (lambda: linear.multiport_outputs([]), "multiport inputs must be a non-empty array"),
        (lambda: fock.FockVector(np.zeros(3), 5), "amps shape (3,) does not match cutoff 5"),
        (lambda: fock.overlap(fock.coherent_fock(0.5, 4), fock.coherent_fock(0.5, 5)),
         "states have different shapes"),
        (lambda: fock.product_state(fock.product_state(VACUUM, VACUUM), VACUUM),
         "product_state needs two single-mode states"),
        (lambda: fock.product_state(VACUUM, fock.coherent_fock(0.0, 5)), "cutoffs differ"),
        (lambda: linear.LinearNetwork(np.zeros((2, 3))),
         "network matrix must be square and non-empty"),
        (lambda: linear.compose(linear.make_beam_splitter(0.5), linear.make_phase_shift([0, 0, 0])),
         "cannot compose networks of 2 and 3 modes"),
        (lambda: pkd.verify_against_private([1.0, 1.0], lockkey.KeyString(8, 1.0, [0]), 1.0),
         "copy has 2 positions, claimed key has 1"),
        (lambda: pkd.distributed_exchange([np.ones(3), np.ones(4)], rng=0),
         "all copies must have the same number of positions"),
    ])
    def test_out_of_domain_input_is_a_clean_value_error(self, call, message):
        # Each of the first 21 raised OverflowError, TypeError or InvariantError, warned of an
        # invalid value, hung, returned inf or was accepted; no test reached the shape checks
        # after them.
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_guarded_entry_points_keep_their_values_up_to_max_amplitude(self):
        a = MAX_AMPLITUDE
        assert fock.recommended_cutoff(a) == math.ceil(a * a + 10.0 * a)
        assert fock.recommended_cutoff(-3 + 4j) == 75
        net = linear.compose(linear.make_beam_splitter(0.3), linear.make_phase_shift([0.7, 0.0]))
        unguarded = linear.apply_network(net, linear.CoherentRegister([a, 1j * a])).mode_means()
        assert comparison.unbalanced_test(a, 1j * a, 0.3, 0.7) == tuple(unguarded.tolist())

    def test_overflowing_mean_photon_number_clicks_surely(self):
        # |a|^2 overflows to inf without a warning; an ideal detector then always clicks.
        register = linear.CoherentRegister([1e200, 0])
        assert register.mode_means().tolist() == [math.inf, 0.0]
        assert register.mean_photon_number == math.inf
        result = pkd.verify_against_private([1e200], lockkey.KeyString(8, 1.0, [0]), 1.0)
        assert (result.errors, result.verdict) == (1, "reject")
        estimate = detection.run_trials(register, linear.make_beam_splitter(0.5), [1], trials=10)
        assert estimate.rate == 1.0

    @pytest.mark.parametrize("errors,got", [
        (np.array([4, -3], np.int8), "got -3"), ([True], "got an array of bool"),
    ])
    def test_verdicts_name_a_count_that_is_no_non_negative_integer(self, errors, got):
        # A negative count, or a count that is no integer, was read as UNSURE.
        with pytest.raises(ValueError, match=f"error counts must be non-negative integers, {got}"):
            pkd.verdicts(errors, 0.5, 10)

    @pytest.mark.parametrize("length", [math.inf, NAN, -5, 2.5])
    def test_verdicts_name_a_length_that_is_no_integer(self, length):
        # length = inf raised OverflowError; -5 and 2.5 gave verdicts.
        with pytest.raises(ValueError, match="key length must be an integer >= 0"):
            pkd.verdicts([0, 3], 0.5, length)

    def test_verdicts_take_an_empty_list(self):
        # np.asarray([]) is float64, yet it holds no count that is not an integer.
        assert pkd.verdicts([], 0.5, 10).shape == (0,)

    def test_multiport_outputs_take_any_array_like(self):
        # A list raised AttributeError; it gives the outputs of the same amplitudes as an array.
        assert np.array_equal(linear.multiport_outputs([1, 2]),
                              linear.multiport_outputs(np.array([1.0, 2.0], dtype=complex)))
        assert linear.multiport_outputs([[1.0], [2j]]).tolist() == [[1.0], [2j]]

    @pytest.mark.parametrize("amps,got", [
        ([[0.5, complex(0.0, NAN)]], "finite, got nanj"),
        (2.0, r"a non-empty array, got shape \(\)"),
        (np.zeros((3, 0)), r"a non-empty array, got shape \(3, 0\)"),
        ([10**400, 1], "finite, got an integer beyond the float range"),
    ])
    def test_multiport_outputs_name_a_non_finite_or_empty_input(self, amps, got):
        # Each raised AttributeError, OverflowError or an FFT warning, not a ValueError.
        with pytest.raises(ValueError, match="multiport inputs must be " + got):
            linear.multiport_outputs(amps)

    @pytest.mark.parametrize("guard", [
        lambda: domain.magnitude(10**400, "x"),
        lambda: domain.magnitude([1, -10**400], "x"),
        lambda: domain.fraction(np.array([10**400], dtype=object), "x"),
        lambda: domain.amplitudes([1, 10**400], "x"),
        lambda: domain.amplitude(10**400, "x"),
    ])
    def test_integer_beyond_the_float_range_is_named(self, guard):
        with pytest.raises(ValueError, match="x must .*, got an integer beyond the float range"):
            guard()

    @pytest.mark.parametrize("means", [math.inf, [math.inf, 2.0, 0.0]])
    def test_blind_detector_clicks_at_the_dark_count_rate(self, means):
        # No light reaches a detector of efficiency 0, however much arrives: not 0 * inf = NaN.
        model = detection.DetectorModel(efficiency=0.0, dark_mean=0.1)
        p = detection.click_probabilities(means, model)
        assert np.all(p == 1.0 - math.exp(-0.1)) and np.shape(p) == np.shape(means)
        assert np.all(detection.click_probabilities(means, detection.DetectorModel(efficiency=0.0))
                      == 0.0)

    def test_key_string_stores_integer_phases(self):
        key = lockkey.KeyString(np.int64(8), np.float64(1.5), np.array([0.0, 3.0, 7.0]))
        assert key.phases == (0, 3, 7) and all(type(k) is int for k in key.phases)
        assert key.n_phases == 8 and key.amplitude == 1.5
