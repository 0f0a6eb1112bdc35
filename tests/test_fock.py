import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompare.fock import (
    FockVector,
    apply_bs_fock,
    coherent_fock,
    fidelity,
    odd_photon_probability,
    photon_distribution,
    product_state,
    recommended_cutoff,
    squeezed_pass_state,
    squeezed_vacuum_fock,
    su2_pass_state,
)
from qcompare import fock
from qcompare.fock import _bs_blocks
from qcompare.linear import CoherentRegister, apply_network, make_beam_splitter

RNG = np.random.default_rng(905)


def coherent_pair(alpha, beta, cutoff=40):
    return product_state(coherent_fock(alpha, cutoff), coherent_fock(beta, cutoff))


class TestCoherentFock:
    def test_vacuum(self):
        vec = coherent_fock(0.0, 10)
        assert vec.amps[0] == 1.0
        assert np.all(vec.amps[1:] == 0.0)

    def test_leading_amplitude(self):
        vec = coherent_fock(1.0, 20)
        assert vec.amps[0] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_mean_photon_number(self):
        vec = coherent_fock(1.5, 40)
        dist = photon_distribution(vec)
        mean = float(np.sum(np.arange(41) * dist))
        assert mean == pytest.approx(1.5**2, abs=1e-9)

    def test_recommended_cutoff_keeps_deficit_small(self):
        for alpha in (0.5, 1.0, 2.0 + 1.0j):
            vec = coherent_fock(alpha, recommended_cutoff(alpha))
            assert vec.deficit < 1e-10

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            coherent_fock(1.0, 0)

    def test_poisson_distribution(self):
        dist = photon_distribution(coherent_fock(1.0, 30))
        expect = np.array([math.exp(-1.0) / math.factorial(n) for n in range(31)])
        assert np.max(np.abs(dist - expect)) < 1e-9

    def test_domain_ends_where_vacuum_term_underflows(self):
        assert coherent_fock(37.6, recommended_cutoff(37.6)).deficit < 1e-10
        for alpha, cutoff in ((38.0, 2000), (40.0, 100), (40j, 2000)):
            with pytest.raises(ValueError, match=r"alpha must be finite with magnitude <= 37\.64"):
                coherent_fock(alpha, cutoff)


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        vec, s = squeezed_vacuum_fock(0.0, 10)
        assert s == 1.0
        assert vec.amps[0] == 1.0
        assert np.all(vec.amps[1:] == 0.0)

    def test_odd_entries_vanish_exactly(self):
        vec, _ = squeezed_vacuum_fock(0.2, 40)
        assert np.all(vec.amps[1::2] == 0.0)

    def test_norm_deficit(self):
        vec, _ = squeezed_vacuum_fock(0.2, 40)
        assert vec.deficit < 1e-10

    def test_rejects_divergent_squeezing(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_fock(0.5, 40)

    def test_rejects_odd_cutoff(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_fock(0.2, 41)


class TestBeamSplitterBlocks:
    def test_blocks_are_orthogonal(self):
        for transmittance in (0.05, 0.3, 0.5):
            blocks = _bs_blocks(transmittance, 240)
            for n in range(241):
                err = np.max(np.abs(blocks[n] @ blocks[n].T - np.eye(n + 1)))
                assert err < 1e-12, (transmittance, n, err)

    def test_single_photon_split(self):
        state = FockVector(np.eye(6, dtype=complex) * 0, 5)
        amps = np.zeros((6, 6), dtype=complex)
        amps[1, 0] = 1.0
        out = apply_bs_fock(FockVector(amps, 5), 0.5)
        assert out.amps[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert out.amps[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_coherent_pair_maps_to_coherent_pair(self):
        out = apply_bs_fock(coherent_pair(0.8, 0.8), 0.5)
        target = coherent_pair(np.sqrt(2) * 0.8, 0.0)
        assert fidelity(out, target) >= 1 - 1e-8

    def test_norm_preserved_to_deficit(self):
        state = coherent_pair(1.0 + 0.3j, -0.7)
        out = apply_bs_fock(state, 0.37)
        assert out.norm_sq == pytest.approx(state.norm_sq, abs=1e-10)

    def test_agrees_with_linear_network_on_random_inputs(self):
        # the whole point of the oracle: number-basis evolution reproduces
        # the amplitude-level network on coherent products
        for _ in range(50):
            a, b = (1.5 * (RNG.standard_normal(2) + 1j * RNG.standard_normal(2))
                    / np.sqrt(2))
            out = apply_bs_fock(coherent_pair(a, b), 0.5)
            g = apply_network(make_beam_splitter(0.5), CoherentRegister([a, b])).amplitudes
            target = coherent_pair(g[0], g[1])
            assert fidelity(out, target) >= 1 - 1e-8

    def test_rejects_single_mode_state(self):
        with pytest.raises(ValueError):
            apply_bs_fock(coherent_fock(1.0, 10), 0.5)

    def test_exact_at_recommended_cutoff_for_large_amplitudes(self):
        # blocks up to n = 150: the binomial-sum builder lost orthogonality here and
        # the output norm^2 exceeded 1
        alpha, beta = 5.0, 4.0j
        cutoff = recommended_cutoff(5.0)
        out = apply_bs_fock(coherent_pair(alpha, beta, cutoff), 0.5)
        g = apply_network(make_beam_splitter(0.5), CoherentRegister([alpha, beta])).amplitudes
        assert fidelity(out, coherent_pair(g[0], g[1], cutoff)) >= 1 - 1e-12

    def test_block_cache_keeps_only_recent_transmittances(self, monkeypatch):
        # unbounded, ten transmittances at cutoff 96 held 193.6 MB of blocks
        monkeypatch.setattr(fock, "_BLOCKS", {})
        state = coherent_pair(0.3, -0.2j, 96)
        sweep = [float(t) for t in np.linspace(0.05, 0.95, 10)]
        tracemalloc.start()
        try:
            for transmittance in sweep:
                apply_bs_fock(state, transmittance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(fock._BLOCKS) == sweep[-fock.BLOCK_CACHE_TRANSMITTANCES:]
        assert peak < 80e6, peak

    def test_block_cache_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(fock, "_BLOCKS", {})
        kept = [0.1 * (k + 1) for k in range(fock.BLOCK_CACHE_TRANSMITTANCES)]
        for transmittance in kept + [kept[0], 0.99]:
            _bs_blocks(transmittance, 4)
        assert list(fock._BLOCKS) == kept[2:] + [kept[0], 0.99]

    def test_block_cache_under_concurrent_callers(self, monkeypatch):
        monkeypatch.setattr(fock, "_BLOCKS", {})
        transmittances = [0.1, 0.2, 0.3, 0.4, 0.5]
        reference = {t: [b.copy() for b in _bs_blocks(t, 30)] for t in transmittances}
        failures, sizes = [], []

        def caller(k):
            try:
                for i in range(60):
                    t = transmittances[(k + i) % len(transmittances)]
                    n_max = 10 + (i * 7 + k) % 21
                    blocks = _bs_blocks(t, n_max)
                    sizes.append(len(fock._BLOCKS))
                    assert len(blocks) > n_max
                    assert all(np.array_equal(b, r) for b, r in zip(blocks, reference[t]))
            except AssertionError as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(sizes) == 6 * 60 and max(sizes) <= fock.BLOCK_CACHE_TRANSMITTANCES

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi), st.floats(0.0, 3.0),
           st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0))
    def test_property_coherent_pairs_map_exactly(self, mag_a, phase_a, mag_b, phase_b,
                                                 transmittance):
        alpha, beta = mag_a * np.exp(1j * phase_a), mag_b * np.exp(1j * phase_b)
        cutoff = recommended_cutoff(mag_a + mag_b)
        state = coherent_pair(alpha, beta, cutoff)
        out = apply_bs_fock(state, transmittance)
        g = apply_network(make_beam_splitter(transmittance),
                          CoherentRegister([alpha, beta])).amplitudes
        assert out.norm_sq <= state.norm_sq + 1e-12
        assert fidelity(out, coherent_pair(g[0], g[1], cutoff)) >= 1 - 1e-9


class TestSqueezedComparison:
    def test_equal_squeezing_gives_even_outputs_only(self):
        assert odd_photon_probability(0.2, 0.2, 40) < 1e-10
        sq, _ = squeezed_vacuum_fock(0.2, 40)
        out = apply_bs_fock(product_state(sq, sq), 0.5)
        dist_a = photon_distribution(out, 0)
        dist_b = photon_distribution(out, 1)
        assert dist_a[1::2].sum() < 1e-10
        assert dist_b[1::2].sum() < 1e-10

    def test_vacuum_inputs(self):
        assert odd_photon_probability(0.0, 0.0, 10) == 0.0

    def test_unequal_squeezing_leaks_odd_photons(self):
        p = odd_photon_probability(0.2, 0.1, 40)
        assert p > 1e-8
        sq1, _ = squeezed_vacuum_fock(0.2, 40)
        sq2, _ = squeezed_vacuum_fock(0.1, 40)
        out = apply_bs_fock(product_state(sq1, sq2), 0.5)
        assert photon_distribution(out, 0)[1::2].sum() > 1e-8

    def test_opposite_squeezing_regression_value(self):
        # xi and -xi feed the pair-creation channel exp(2 xi a^dag b^dag); the
        # odd-count probability reduces to the geometric series value
        # (2 xi)^2 / (1 + (2 xi)^2) = 4/29 at xi = 0.2.
        assert odd_photon_probability(0.2, -0.2, 40) == pytest.approx(4 / 29, abs=1e-12)


class TestPassStates:
    def test_trivial_cases(self):
        assert su2_pass_state(0, 5).amps[0, 0] == 1.0
        state1 = su2_pass_state(1, 5)
        assert state1.amps[1, 0] == pytest.approx(1 / np.sqrt(2))
        assert state1.amps[0, 1] == pytest.approx(1 / np.sqrt(2))
        assert squeezed_pass_state(0, 0, 6).amps[0, 0] == pytest.approx(1.0)

    def test_su2_forward_evolution_concentrates_photons(self):
        for n in range(7):
            out = apply_bs_fock(su2_pass_state(n, 12), 0.5)
            target = np.zeros((13, 13), dtype=complex)
            target[n, 0] = 1.0
            assert abs(np.vdot(target, out.amps)) ** 2 >= 1 - 1e-10

    def test_su2_states_mutually_orthogonal(self):
        states = [su2_pass_state(n, 12) for n in range(7)]
        for i in range(7):
            for j in range(i):
                assert abs(np.vdot(states[i].amps, states[j].amps)) < 1e-12

    def test_squeezed_pass_forward_evolution(self):
        out = apply_bs_fock(squeezed_pass_state(2, 0, 12), 0.5)
        target = np.zeros((13, 13), dtype=complex)
        target[2, 0] = 1.0
        assert abs(np.vdot(target, out.amps)) ** 2 >= 1 - 1e-10

    def test_squeezed_pass_outputs_even(self):
        for m, n in ((2, 2), (4, 0), (2, 4)):
            state = squeezed_pass_state(m, n, 16)
            assert state.norm_sq == pytest.approx(1.0, abs=1e-10)
            out = apply_bs_fock(state, 0.5)
            probs = np.abs(out.amps) ** 2
            assert probs.sum() - probs[0::2, 0::2].sum() < 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            su2_pass_state(13, 12)
        with pytest.raises(ValueError):
            squeezed_pass_state(1, 2, 12)
        with pytest.raises(ValueError):
            squeezed_pass_state(2, 3, 12)


class TestTruncation:
    def test_deficit_monotone_in_cutoff(self):
        deficits = [coherent_fock(1.5, c).deficit for c in (6, 8, 10, 14, 20, 30)]
        assert all(b <= a + 1e-14 for a, b in zip(deficits, deficits[1:]))
        sq_deficits = [squeezed_vacuum_fock(0.3, c)[0].deficit for c in (4, 8, 16, 32)]
        assert all(b <= a + 1e-14 for a, b in zip(sq_deficits, sq_deficits[1:]))

    def test_distribution_sums_to_norm(self):
        vec = coherent_fock(1.2, 15)
        assert photon_distribution(vec).sum() == pytest.approx(vec.norm_sq, abs=1e-12)

    def test_bad_mode_index_rejected(self):
        with pytest.raises(ValueError):
            photon_distribution(coherent_fock(1.0, 10), 1)

    def test_norm_overflow_rejected(self):
        with pytest.raises(ValueError):
            FockVector(np.full(11, 0.5, dtype=complex), 10)
