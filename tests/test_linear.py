import warnings

import numpy as np
import pytest
from scipy.stats import unitary_group

from qcompare import linear
from qcompare.linear import (
    CoherentRegister,
    LinearNetwork,
    apply_network,
    compose,
    make_balanced_multiport,
    make_beam_splitter,
    make_phase_shift,
    output_means,
)
from support import traced_peak

RNG = np.random.default_rng(20240811)


def random_amplitudes(n, scale=2.0):
    return scale * (RNG.standard_normal(n) + 1j * RNG.standard_normal(n)) / np.sqrt(2)


class TestBeamSplitter:
    def test_balanced_cancels_equal_inputs(self):
        alpha = 0.7 - 0.2j
        out = apply_network(make_beam_splitter(0.5), CoherentRegister([alpha, alpha]))
        assert out.amplitudes[0] == pytest.approx(np.sqrt(2) * alpha, abs=1e-14)
        assert out.amplitudes[1] == pytest.approx(0.0, abs=1e-14)

    def test_full_transmission_is_identity_up_to_sign(self):
        out = apply_network(make_beam_splitter(1.0), CoherentRegister([1.3j, 0.4]))
        assert out.amplitudes[0] == pytest.approx(1.3j, abs=1e-14)
        assert out.amplitudes[1] == pytest.approx(-0.4, abs=1e-14)

    def test_opposite_inputs_exit_difference_port(self):
        out = apply_network(make_beam_splitter(0.5), CoherentRegister([1.0, -1.0]))
        assert out.amplitudes[0] == pytest.approx(0.0, abs=1e-14)
        assert out.amplitudes[1] == pytest.approx(np.sqrt(2), abs=1e-14)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range_transmittance(self, bad):
        with pytest.raises(ValueError):
            make_beam_splitter(bad)

    def test_input_phase_via_composition(self):
        # phase shifter on mode 0 followed by the splitter tests sqrt(T) e^{i th} a + sqrt(R) b
        theta, t = 0.9, 0.3
        net = compose(make_beam_splitter(t), make_phase_shift([theta, 0.0]))
        alpha, beta = 0.8 + 0.1j, -0.5 + 0.6j
        out = apply_network(net, CoherentRegister([alpha, beta]))
        expected0 = np.sqrt(t) * np.exp(1j * theta) * alpha + np.sqrt(1 - t) * beta
        expected1 = np.sqrt(1 - t) * np.exp(1j * theta) * alpha - np.sqrt(t) * beta
        assert out.amplitudes[0] == pytest.approx(expected0, abs=1e-12)
        assert out.amplitudes[1] == pytest.approx(expected1, abs=1e-12)


class TestBalancedMultiport:
    def test_two_modes_is_the_balanced_splitter(self):
        mp = make_balanced_multiport(2)
        bs = make_beam_splitter(0.5)
        assert np.allclose(mp.matrix, bs.matrix, atol=1e-12)

    def test_row_sums_of_three_port(self):
        mat = make_balanced_multiport(3).matrix
        sums = mat.sum(axis=1)
        assert sums[0] == pytest.approx(np.sqrt(3), abs=1e-12)
        assert abs(sums[1]) < 1e-12 and abs(sums[2]) < 1e-12

    def test_determinant_modulus_one(self):
        det = np.linalg.det(make_balanced_multiport(5).matrix)
        assert abs(det) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [0, 1, -3])
    def test_rejects_small_n(self, bad):
        with pytest.raises(ValueError):
            make_balanced_multiport(bad)

    def test_equal_inputs_bunch_into_mode_zero(self):
        alpha = 0.3 + 0.4j
        for n in (2, 3, 5, 8):
            out = apply_network(make_balanced_multiport(n),
                                CoherentRegister([alpha] * n))
            assert out.amplitudes[0] == pytest.approx(np.sqrt(n) * alpha, abs=1e-12)
            assert np.max(np.abs(out.amplitudes[1:])) < 1e-12

    def test_matched_phase_ramp_feeds_single_mode(self):
        w = np.exp(2j * np.pi / 3)
        out = apply_network(make_balanced_multiport(3), CoherentRegister([1, w, w * w]))
        means = out.mode_means()
        assert means[1] == pytest.approx(3.0, abs=1e-12)
        assert means[0] < 1e-24 and means[2] < 1e-24


class TestNetworkInvariants:
    def test_construction_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            LinearNetwork(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-8]]))

    def test_unitarity_of_constructors(self):
        nets = [compose(make_beam_splitter(0.37), make_phase_shift([0.4, 0.0])),
                make_balanced_multiport(7),
                make_phase_shift([0.1, -2.0, 3.0])]
        for net in nets:
            defect = np.max(np.abs(net.matrix @ net.matrix.conj().T - np.eye(net.n_modes)))
            assert defect < 1e-10

    def test_photon_conservation_random_sweep(self):
        # 1000 random register/network pairs
        for _ in range(1000):
            n = int(RNG.integers(2, 9))
            net = LinearNetwork(unitary_group.rvs(n, random_state=RNG))
            reg = CoherentRegister(random_amplitudes(n))
            out = apply_network(net, reg)
            assert out.mean_photon_number == pytest.approx(
                reg.mean_photon_number, rel=1e-12)

    def test_composition_matches_sequential_application(self):
        for _ in range(50):
            n = int(RNG.integers(2, 6))
            a = LinearNetwork(unitary_group.rvs(n, random_state=RNG))
            b = LinearNetwork(unitary_group.rvs(n, random_state=RNG))
            reg = CoherentRegister(random_amplitudes(n))
            seq = apply_network(a, apply_network(b, reg))
            fused = apply_network(compose(a, b), reg)
            assert np.allclose(seq.amplitudes, fused.amplitudes, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_network(make_balanced_multiport(3), CoherentRegister([1.0, 2.0]))

    def test_register_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoherentRegister([1.0, np.nan])

    def test_output_means_helper(self):
        means = output_means(make_beam_splitter(0.5), CoherentRegister([1.0, -1.0]))
        assert means[1] == pytest.approx(2.0, abs=1e-12)


class TestMatrixOwnership:
    def test_writable_array_is_copied_and_left_writable(self):
        a = np.eye(2, dtype=complex)
        net = LinearNetwork(a)
        assert a.flags.writeable and not net.matrix.flags.writeable
        a[0, 0] = 5.0
        assert net.matrix[0, 0] == 1.0

    @pytest.mark.parametrize("read_only", [False, True])
    def test_write_through_a_view_does_not_reach_the_matrix(self, read_only):
        # A kept view let b[0, 0] = 5 turn the validated matrix non-unitary.
        b = np.eye(2, dtype=complex)
        view = b[:, :]
        view.setflags(write=not read_only)
        net = LinearNetwork(view)
        b[0, 0] = 5.0
        assert net.matrix[0, 0] == 1.0

    def test_reversed_view_is_copied_contiguous(self):
        net = LinearNetwork(dense_dft(16)[::-1])
        assert net.matrix.flags.c_contiguous and net.matrix.base is None

    def test_read_only_owner_made_writable_does_not_reach_the_matrix(self):
        # A kept read-only owner could be made writable again and turned non-unitary.
        a = np.eye(2, dtype=complex)
        a.setflags(write=False)
        net = LinearNetwork(a)
        a.setflags(write=True)
        a[0, 0] = 5
        assert net.matrix[0, 0] == 1.0 and not net.matrix.flags.writeable

    def test_constructors_hand_their_matrix_over(self):
        for net in (make_balanced_multiport(8), make_phase_shift([0.1, 0.2]),
                    compose(make_balanced_multiport(4), make_balanced_multiport(4))):
            assert net.matrix.base is None and not net.matrix.flags.writeable
        dft = make_balanced_multiport(512)
        # DFT^2 is a permutation, judged by the Gram product: 1.75x the matrix
        # with its row blocks; a copy of the product would add 1x.
        assert traced_peak(compose, dft, dft)[1] <= 2.0 * dft.matrix.nbytes


def dense_dft(n):
    """The DFT matrix by N^2 complex exponentials of 2 pi k l / N."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def one_shot_dft(n):
    """The multiport gathered through one N x N index table: the row-block reference."""
    k = np.arange(n)
    roots = np.exp(2j * np.pi * k / n) / np.sqrt(n)
    return roots[np.outer(k, k) % n]


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestFourierCertificate:
    SIZES = [2, 3, 7, 64, 97, 1009, 1024]

    @pytest.mark.parametrize("n", SIZES)
    def test_gathered_multiport_is_the_dft(self, n):
        assert np.max(np.abs(make_balanced_multiport(n).matrix - dense_dft(n))) < 1e-13

    @pytest.mark.parametrize("n", SIZES)
    def test_bound_covers_the_gram_defect(self, n):
        rng = np.random.default_rng(n)
        dft = make_balanced_multiport(n).matrix
        # A unitary far from the DFT (the row-reversed DFT where sampling one costs seconds).
        matrices = [dft, unitary_group.rvs(n, random_state=rng) if n <= 97 else dft[::-1]]
        for scale in (1e-13, 1e-11, 1e-9, 1e-6):
            noise = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            if scale == 1e-13:
                matrices.append(dft + noise)
            # Row 0 kept exact, so the FFT bound is evaluated, not the O(N) shortcut.
            noise[0] = 0.0
            matrices.append(dft + noise)
        for mat in matrices:
            assert linear._fourier_certificate(mat) >= linear._gram_defect(mat)

    @pytest.mark.parametrize("n", SIZES)
    def test_the_dft_is_certified(self, n):
        assert linear._fourier_certificate(make_balanced_multiport(n).matrix) < 1e-10

    def test_budget_maximum_dft_is_certified(self):
        # N^2 <= WORK_BUDGET: the largest multiport the domain admits.
        assert linear._fourier_certificate(make_balanced_multiport(3162).matrix) < 1e-10

    def test_budget_maximum_dft_memory(self):
        # The index and the certificate's FFT go by row blocks: the matrix is the peak.
        net, peak = traced_peak(make_balanced_multiport, 3162)
        mat = net.matrix
        assert peak <= 1.05 * mat.nbytes, peak / mat.nbytes

    @pytest.mark.parametrize("n", SIZES)
    def test_row_blocks_gather_the_one_shot_matrix(self, n):
        assert_bitwise(make_balanced_multiport(n).matrix, one_shot_dft(n))

    @pytest.mark.parametrize("matrix", [
        [[1e308, 1e308], [0.0, 1.0]],  # the Gram product overflows
        [[3**-0.5] * 3, [1e308] * 3, [1e308, -1e308, 1e308]],  # the certificate is NaN
    ])
    def test_overflowing_matrix_is_rejected_cleanly(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                LinearNetwork(matrix)

    def test_one_perturbed_entry_is_still_rejected(self):
        mat = make_balanced_multiport(64).matrix.copy()
        mat[3, 5] += 1e-9
        with pytest.raises(ValueError, match=r"defect 1\.250e-10 exceeds"):
            LinearNetwork(mat)

    def test_large_multiport_is_accurate_without_the_gram_product(self, monkeypatch):
        def refuse(mat):
            raise AssertionError("the Gram product was evaluated")

        gram_defect = linear._gram_defect
        monkeypatch.setattr(linear, "_gram_defect", refuse)
        mat = make_balanced_multiport(1024).matrix
        # The N^2 exponentials of dense_dft reach 7.6e-14 here; the gathered
        # roots stay at rounding.
        assert gram_defect(mat) <= 1e-14


class TestFiniteCheck:
    REAL = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    COMPLEX = make_balanced_multiport(4).matrix

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_non_finite_entry_is_rejected(self, value, kind, entry):
        mat = (self.REAL if kind == "real" else self.COMPLEX).copy()
        mat[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="network matrix must be finite"):
                LinearNetwork(mat)


class TestApplyWithoutCopies:
    """apply_network and _gram_defect against the N x N temporaries they replace."""

    NETWORKS = [
        make_beam_splitter(0.5),
        make_beam_splitter(0.3),
        make_beam_splitter(1.0),
        compose(make_beam_splitter(0.37), make_phase_shift([0.4, 0.0])),
        compose(make_balanced_multiport(3), make_phase_shift([0.1, -2.0, 3.0])),
    ]

    @staticmethod
    def registers(n, rng):
        """Random amplitudes, then inputs whose outputs hold exact (signed) zeros."""
        amps = [2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(3)]
        amps += [np.ones(n), -np.ones(n), np.zeros(n), np.full(n, complex(-0.0, -0.0)),
                 np.where(np.arange(n) % 2, 1.0, -1.0)]
        return [CoherentRegister(a) for a in amps]

    def check_bitwise(self, net, rng):
        for reg in self.registers(net.n_modes, rng):
            expected = net.matrix.conj().T @ reg.amplitudes
            assert_bitwise(apply_network(net, reg).amplitudes, expected)

    @pytest.mark.parametrize("n", [1009, 1024])
    def test_dft_output_is_bitwise_the_conjugate_product(self, n):
        self.check_bitwise(make_balanced_multiport(n), np.random.default_rng(n))

    @pytest.mark.parametrize("n", [2, 3, 7, 31, 97])
    def test_random_unitary_output_is_bitwise_the_conjugate_product(self, n):
        rng = np.random.default_rng(n)
        self.check_bitwise(LinearNetwork(unitary_group.rvs(n, random_state=rng)), rng)

    @pytest.mark.parametrize("index", range(len(NETWORKS)))
    def test_small_network_output_is_bitwise_the_conjugate_product(self, index):
        self.check_bitwise(self.NETWORKS[index], np.random.default_rng(index))

    def test_apply_allocates_no_matrix(self):
        net = make_balanced_multiport(1024)
        reg = CoherentRegister(random_amplitudes(1024))
        assert traced_peak(apply_network, net, reg)[1] <= 0.01 * net.matrix.nbytes

    @pytest.mark.parametrize("n", [2, 7, 97])
    def test_gram_defect_is_bitwise_the_full_product(self, n):
        mat = unitary_group.rvs(n, random_state=np.random.default_rng(n))
        mat[n // 2, 0] += 1e-7
        assert linear._gram_defect(mat) == np.max(np.abs(mat @ mat.conj().T - np.eye(n)))

    def test_gram_defect_holds_row_blocks_only(self):
        mat = make_balanced_multiport(1024).matrix[::-1]
        assert linear._gram_defect(mat) == np.max(np.abs(mat @ mat.conj().T - np.eye(1024)))
        assert traced_peak(linear._gram_defect, mat)[1] <= 0.25 * mat.nbytes

    def test_gram_defect_keeps_a_nan_block(self):
        mat = np.eye(300, dtype=complex)
        mat[0, 0] = np.nan
        assert np.isnan(linear._gram_defect(mat))
