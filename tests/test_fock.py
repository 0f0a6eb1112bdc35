import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from qcompare.fock import _bs_blocks, _bs_windows
from qcompare.linear import CoherentRegister, apply_network, make_beam_splitter
from support import traced_peak

RNG = np.random.default_rng(905)


def coherent_pair(alpha, beta, cutoff=40):
    return product_state(coherent_fock(alpha, cutoff), coherent_fock(beta, cutoff))


def whole_blocks(transmittance, n_max):
    """Blocks 0..n_max, each whole: the generator's windows are whole up to its cutoff."""
    return list(itertools.islice(_bs_blocks(transmittance, n_max), n_max + 1))


def apply_bs_fock_by_blocks(state, transmittance):
    """Reference: rotate each total-photon-number block on its own, in a Python loop."""
    cutoff, amps = state.cutoff, state.amps
    out = np.zeros_like(amps)
    for n, block in enumerate(whole_blocks(transmittance, 2 * cutoff)):
        idx = np.arange(max(0, n - cutoff), min(n, cutoff) + 1)
        vec = np.zeros(n + 1, dtype=complex)
        vec[idx] = amps[n - idx, idx]  # index = photon count in mode b
        if not np.any(vec):
            continue
        rot = block @ vec
        out[idx, n - idx] = rot[idx]  # index = photon count in mode a
    return out


def diagonal_weights(amps):
    """Squared norm of each anti-diagonal a + b = n of a two-mode state."""
    d = amps.shape[0]
    return np.bincount(np.add.outer(np.arange(d), np.arange(d)).ravel(),
                       (np.abs(amps) ** 2).ravel(), minlength=2 * d - 1)


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

    def test_rejects_several_amplitudes(self):
        # Read as its first entry: coherent_fock([0.5, 3.0], 10) equalled coherent_fock(0.5, 10).
        with pytest.raises(ValueError, match="alpha must be a single complex number"):
            coherent_fock([0.5, 3.0], 10)

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

    def test_rejects_several_squeezing_parameters(self):
        with pytest.raises(ValueError, match="xi must be a single complex number"):
            squeezed_vacuum_fock([0.2, 0.4], 40)


class TestBeamSplitterBlocks:
    def test_blocks_are_orthogonal(self):
        for transmittance in (0.05, 0.3, 0.5):
            for n, block in enumerate(whole_blocks(transmittance, 240)):
                err = np.max(np.abs(block @ block.T - np.eye(n + 1)))
                assert err < 1e-12, (transmittance, n, err)

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 30])
    def test_windows_are_cut_from_the_whole_blocks(self, cutoff):
        for transmittance in (0.0, 0.3, 0.5, 1.0):
            blocks = whole_blocks(transmittance, 2 * cutoff)
            windows, _ = _bs_windows(transmittance, cutoff)
            for n, block in enumerate(_bs_blocks(transmittance, cutoff)):
                lo, hi = max(0, n - cutoff), min(n, cutoff)
                assert np.array_equal(block, blocks[n][lo:hi + 1, lo:hi + 1]), (n, cutoff)
                m = hi - lo + 1
                assert np.array_equal(windows[n, :m, :m], block[:, ::-1])
                assert not windows[n, m:].any() and not windows[n, :, m:].any()
            assert n == 2 * cutoff

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

    def test_block_cache_keeps_only_recent_transmittances(self):
        # unbounded, ten transmittances at cutoff 96 held 193.6 MB of blocks, and
        # three cached pairs peaked at 44.4 MB: one entry is about 15 MB
        _bs_windows.cache_clear()
        state = coherent_pair(0.3, -0.2j, 96)
        sweep = [float(t) for t in np.linspace(0.05, 0.95, 10)]
        def apply_sweep():
            for transmittance in sweep:
                apply_bs_fock(state, transmittance)

        _, peak = traced_peak(apply_sweep)
        info = _bs_windows.cache_info()
        assert (info.misses, info.currsize) == (10, 1)
        _bs_windows(sweep[-1], 96)
        assert _bs_windows.cache_info().hits == info.hits + 1
        assert peak < 37e6, peak  # 2.5 entries: the cached one and the one being built

    def test_block_cache_evicts_the_least_recently_used(self):
        _bs_windows.cache_clear()
        first = _bs_windows(0.1, 4)
        assert _bs_windows(0.1, 4) is first
        # the same transmittance at another cutoff is another pair, and replaces it
        other = _bs_windows(0.1, 5)
        assert _bs_windows(0.1, 5) is other
        rebuilt = _bs_windows(0.1, 4)
        assert rebuilt is not first
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt, first))
        info = _bs_windows.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 3, 1, 1)

    def test_block_cache_under_concurrent_callers(self):
        keys = [(t, cutoff) for t in (0.1, 0.2, 0.3, 0.4, 0.5) for cutoff in (5, 10, 15)]
        reference = {key: tuple(a.copy() for a in _bs_windows(*key)) for key in keys}
        _bs_windows.cache_clear()
        failures, sizes = [], []

        def caller(k):
            try:
                for i in range(60):
                    key = keys[(k + i * 7) % len(keys)]
                    entry = _bs_windows(*key)
                    sizes.append(_bs_windows.cache_info().currsize)
                    assert all(np.array_equal(a, r) for a, r in zip(entry, reference[key]))
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
        assert len(sizes) == 6 * 60 and max(sizes) <= 1

    def test_largest_accepted_cutoff_stays_in_the_traced_budget(self):
        # 82.8 MB is what the block cache needed for `oracle --cutoff 154`
        _bs_windows.cache_clear()
        cutoff = 170
        with pytest.raises(ValueError, match="WORK_BUDGET"):
            _bs_windows(0.37, cutoff + 1)
        state = coherent_pair(0.3, -0.2j, cutoff)
        out, peak = traced_peak(apply_bs_fock, state, 0.37)
        assert peak <= 82.8e6, peak
        t, r = math.sqrt(0.37), math.sqrt(0.63)
        assert fidelity(out, coherent_pair(0.3 * t - 0.2j * r, 0.3 * r + 0.2j * t,
                                           cutoff)) >= 1 - 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0))
    @example(cutoff=1, transmittance=0.0, seed=1, zero_share=0.0)
    @example(cutoff=60, transmittance=1.0, seed=2, zero_share=0.3)
    @example(cutoff=17, transmittance=0.5, seed=3, zero_share=0.5)
    @example(cutoff=5, transmittance=0.5, seed=4, zero_share=1.0)
    def test_property_batched_apply_matches_the_block_loop(self, cutoff, transmittance, seed,
                                                            zero_share):
        rng = np.random.default_rng(seed)
        d = cutoff + 1
        amps = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        zero = np.flatnonzero(rng.random(2 * cutoff + 1) < zero_share)  # whole anti-diagonals
        amps[np.isin(np.add.outer(np.arange(d), np.arange(d)), zero)] = 0.0
        if amps.any():
            amps *= rng.uniform(0.1, 1.0) / np.linalg.norm(amps)
        state = FockVector(amps, cutoff)
        out = apply_bs_fock(state, transmittance)
        ref = apply_bs_fock_by_blocks(state, transmittance)
        assert np.max(np.abs(out.amps - ref)) <= 1e-14 * math.sqrt(state.norm_sq)
        # norm kept on the whole blocks n <= cutoff; above, what leaves the square is lost
        before, after = diagonal_weights(state.amps), diagonal_weights(out.amps)
        assert np.all(np.abs(after[:d] - before[:d]) <= 1e-12)
        assert np.all(after[d:] <= before[d:] + 1e-12)
        assert out.norm_sq <= state.norm_sq + 1e-12

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


class TestStateOwnership:
    def test_callers_array_is_copied_and_left_writable(self):
        # The caller's array was frozen and kept: made writable again, a[:] = 5 gave
        # the validated state norm_sq 75.0 and deficit -74.0.
        a = np.array([1.0, 0.0, 0.0], dtype=complex)
        state = FockVector(a, 2)
        assert a.flags.writeable and not state.amps.flags.writeable
        a[:] = 5
        assert (state.norm_sq, state.deficit) == (1.0, 0.0)

    def test_write_through_a_view_does_not_reach_the_state(self):
        owner = np.zeros((3, 3), dtype=complex)
        owner[0, 0] = 1.0
        state = FockVector(owner[:, :], 2)
        owner[:] = 5
        assert state.norm_sq == 1.0 and state.amps.base is None
