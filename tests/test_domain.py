import math

import numpy as np
import pytest

from qcompare import comparison, detection, domain, fock, linear, lockkey, pkd
from qcompare.domain import MAX_AMPLITUDE, WORK_BUDGET
from support import traced_peak

NAN = math.nan


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
        lambda: pkd.trusted_center_distribute([0] * 1000, 8, 1.0, copies=2 * 10**4),
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

    @pytest.mark.parametrize("call", [
        lambda: comparison.coherent_overlap(1e200, 0.0),
        lambda: comparison.p_success_two(NAN, 0.0),
        lambda: fock.coherent_fock(1e200, 10),
        lambda: lockkey.KeyString(8, 1.0, (0, 2.5)),
        lambda: lockkey.KeyString(8, NAN, (0, 1)),
        lambda: pkd.cheat_bound(math.nan, 10),
        lambda: detection.stream(2**128),
        lambda: detection.DetectorModel(dark_mean=10**400),
        lambda: linear.make_beam_splitter(10**400),
        lambda: linear.CoherentRegister([10**400, 1]),
        lambda: fock.recommended_cutoff(1e200),
        lambda: fock.recommended_cutoff(math.inf),
        lambda: comparison.unbalanced_test(1e200, 0, 0.5),
    ])
    def test_out_of_domain_input_is_a_clean_value_error(self, call):
        # Each of these raised OverflowError or InvariantError, hung, returned inf or was accepted.
        with pytest.raises(ValueError):
            call()

    def test_guarded_entry_points_keep_their_values_up_to_max_amplitude(self):
        a = MAX_AMPLITUDE
        assert fock.recommended_cutoff(a) == math.ceil(a * a + 10.0 * a)
        assert fock.recommended_cutoff(-3 + 4j) == 75
        net = linear.compose(linear.make_beam_splitter(0.3), linear.make_phase_shift([0.7, 0.0]))
        unguarded = linear.output_means(net, linear.CoherentRegister([a, 1j * a]))
        assert comparison.unbalanced_test(a, 1j * a, 0.3, 0.7) == tuple(unguarded.tolist())

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

    def test_key_string_stores_integer_phases(self):
        key = lockkey.KeyString(np.int64(8), np.float64(1.5), np.array([0.0, 3.0, 7.0]))
        assert key.phases == (0, 3, 7) and all(type(k) is int for k in key.phases)
        assert key.n_phases == 8 and key.amplitude == 1.5
