import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from qcompare import detection
from qcompare.detection import (
    BLOCK_UNIFORMS,
    IDEAL,
    DetectorModel,
    Estimate,
    bernoulli_counts,
    click_probabilities,
    run_trials,
    stream,
    trial_clicks,
)
from qcompare.linear import CoherentRegister, make_balanced_multiport, make_beam_splitter
from support import three_sigma, traced_peak


class TestDetectorModel:
    def test_defaults_are_ideal(self):
        assert IDEAL.efficiency == 1.0
        assert IDEAL.dark_mean == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"efficiency": -0.1}, {"efficiency": 1.2}, {"dark_mean": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorModel(**kwargs)


class TestTrialClicks:
    def test_zero_mean_ideal_never_clicks(self):
        clicks = trial_clicks(click_probabilities(np.zeros(1000)), rng=1)
        assert not clicks.any()

    def test_negative_mean_rejected(self):
        for means in (-0.5, [0.5, -0.1]):
            with pytest.raises(ValueError, match="mean photon number"):
                click_probabilities(means)

    def test_click_rate_matches_two_state_success_probability(self):
        # mean |alpha-beta|^2/2 with alpha=1, beta=-1
        n = 100_000
        expected = 1.0 - math.exp(-2.0)
        clicks = trial_clicks(click_probabilities(np.full(n, 2.0)), rng=7)
        assert abs(np.count_nonzero(clicks) / n - expected) < three_sigma(expected, n)

    def test_efficiency_and_dark_counts_set_the_click_probability(self):
        model = DetectorModel(efficiency=0.5, dark_mean=0.25)
        assert click_probabilities(2.0, model) == pytest.approx(1.0 - math.exp(-1.25), rel=1e-15)

    def test_clicks_are_zero_or_one_in_the_shape_of_p(self):
        p = np.array([[0.0, 0.3, 1.0], [0.9, 0.5, 0.01]])
        clicks = trial_clicks(p, rng=3)
        assert clicks.shape == p.shape and clicks.dtype == np.uint8
        assert set(np.unique(clicks)) <= {0, 1}
        assert clicks[0, 0] == 0 and clicks[0, 2] == 1

    def test_determinism(self):
        p = np.linspace(0.0, 1.0, 50)
        np.testing.assert_array_equal(trial_clicks(p, rng=42), trial_clicks(p, rng=42))

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3, 4)])
    def test_is_trial_zero_of_the_engine(self, seed, shape):
        p = stream(100 + seed).random(shape)
        gen, ref = stream(seed), stream(seed)
        for g in (gen, ref):  # leave a spare 32-bit half, which must carry over
            g.integers(0, 1000, size=1, dtype=np.int32)
        assert int(trial_clicks(p, gen).sum()) == bernoulli_counts(p.ravel(), 1, ref)[0]
        np.testing.assert_array_equal(gen.integers(0, 2**31, size=3, dtype=np.int32),
                                      ref.integers(0, 2**31, size=3, dtype=np.int32))
        np.testing.assert_array_equal(gen.random(5), ref.random(5))

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 2.0])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"probability p must lie in \[0, 1\]"):
            trial_clicks([0.5, bad], 1)


class TestRunTrials:
    def test_equal_inputs_never_click(self):
        reg = CoherentRegister([0.9, 0.9, 0.9])
        stats = run_trials(reg, make_balanced_multiport(3), [1, 2], IDEAL, trials=5000, rng=0)
        assert stats.rate == 0.0
        assert stats.successes == 0

    def test_two_state_difference_detection(self):
        reg = CoherentRegister([1.0, -1.0])
        stats = run_trials(reg, make_beam_splitter(0.5), [1], IDEAL, trials=100_000, rng=5)
        expected = 1.0 - math.exp(-2.0)
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)
        low, high = stats.wilson
        assert low < expected < high

    def test_dark_counts_fire_on_equal_inputs(self):
        reg = CoherentRegister([0.5, 0.5, 0.5])
        model = DetectorModel(dark_mean=0.01)
        stats = run_trials(reg, make_balanced_multiport(3), [1, 2], model,
                           trials=100_000, rng=9)
        expected = 1.0 - math.exp(-0.01 * 2)
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)

    def test_efficiency_scales_difference_rate(self):
        reg = CoherentRegister([1.0, -1.0])
        model = DetectorModel(efficiency=0.5)
        stats = run_trials(reg, make_beam_splitter(0.5), [1], model, trials=100_000, rng=13)
        expected = 1.0 - math.exp(-0.5 * 2.0)
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)

    def test_empty_watched_set_rejected(self):
        reg = CoherentRegister([1.0, -1.0])
        with pytest.raises(ValueError):
            run_trials(reg, make_beam_splitter(0.5), [], IDEAL, trials=10, rng=0)

    def test_out_of_range_mode_rejected(self):
        reg = CoherentRegister([1.0, -1.0])
        with pytest.raises(ValueError):
            run_trials(reg, make_beam_splitter(0.5), [2], IDEAL, trials=10, rng=0)

    def test_ten_million_trials_in_bounded_memory(self):
        # One-byte counts (10 MB) and one block in flight; int64 counts took 82.5 MB.
        reg = CoherentRegister([1.0, -1.0])
        stats, peak = traced_peak(run_trials, reg, make_beam_splitter(0.5), [1], IDEAL,
                                  trials=10**7, rng=3)
        expected = 1.0 - math.exp(-2.0)
        assert abs(stats.rate - expected) < three_sigma(expected, stats.trials)
        assert peak <= 16e6, peak

    def test_seed_determinism(self):
        reg = CoherentRegister([0.8, -0.3 + 0.2j])
        a = run_trials(reg, make_beam_splitter(0.5), [0, 1], IDEAL, trials=2000, rng=77)
        b = run_trials(reg, make_beam_splitter(0.5), [0, 1], IDEAL, trials=2000, rng=77)
        assert a == b


def one_shot_counts(p, trials, gen):
    """Reference engine: the whole (trials, len(p)) uniform table drawn at once."""
    return (gen.random((trials, len(p))) < p).sum(axis=1)


class TestBernoulliCounts:
    P = np.linspace(0.05, 0.9, 7)
    ROWS = BLOCK_UNIFORMS // 7
    TRIALS = 4 * ROWS + 7  # five blocks; no multiple of 2, 3 or 5

    def assert_same_stream(self, p, trials, seed):
        gen, ref = stream(seed), stream(seed)
        np.testing.assert_array_equal(bernoulli_counts(p, trials, gen), one_shot_counts(p, trials, ref))
        np.testing.assert_array_equal(gen.random(5), ref.random(5))

    @pytest.mark.parametrize("trials", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_matches_one_shot_table_across_block_edges(self, trials):
        self.assert_same_stream(self.P, trials, seed=11)

    def test_one_row_per_block_when_p_exceeds_a_block(self):
        p = np.linspace(0.0, 1e-4, BLOCK_UNIFORMS + 5)
        self.assert_same_stream(p, 3, seed=12)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValueError):
            bernoulli_counts(self.P, trials, 0)

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 2.0, -1e-300, 1.0 + 1e-15])
    def test_probability_outside_unit_interval_rejected(self, bad):
        # Each was read as "never" (NaN, negative) or "always" (above 1).
        with pytest.raises(ValueError, match=r"probability p must lie in \[0, 1\]"):
            bernoulli_counts([0.5, bad, 0.25], 5, 1)
        with pytest.raises(ValueError, match="probability p"):
            bernoulli_counts(bad, 5, 1)
        np.testing.assert_array_equal(bernoulli_counts([0.0, 1.0], 3, 1), [1, 1, 1])

    @pytest.fixture
    def placed(self, monkeypatch):
        """Offsets at which worker ranges got their Philox generators; threads switch often."""
        offsets = []
        philox_at = detection._philox_at

        def recording(state, offset):
            offsets.append(offset)
            return philox_at(state, offset)

        monkeypatch.setattr(detection, "_philox_at", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # to expose any race between the range threads
        try:
            yield offsets
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def set_cpus(monkeypatch, n):
        monkeypatch.setattr(detection, "_available_cpus", lambda: n)

    @staticmethod
    def predraw(doubles, int32s, *gens):
        for gen in gens:
            gen.random(doubles)
            gen.integers(0, 1000, size=int32s, dtype=np.int32)

    @staticmethod
    def assert_same_next_draws(gen, ref):
        # int32 first: a spare half of a 64-bit draw must carry over
        np.testing.assert_array_equal(gen.integers(0, 2**31, size=3, dtype=np.int32),
                                      ref.integers(0, 2**31, size=3, dtype=np.int32))
        np.testing.assert_array_equal(gen.random(5), ref.random(5))

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("doubles", range(6))
    @pytest.mark.parametrize("int32s", [0, 3])
    def test_matches_one_shot_table_for_any_worker_count(self, monkeypatch, placed, workers,
                                                         doubles, int32s):
        self.set_cpus(monkeypatch, workers)
        gen, ref = stream(21), stream(21)
        self.predraw(doubles, int32s, gen, ref)
        np.testing.assert_array_equal(bernoulli_counts(self.P, self.TRIALS, gen),
                                      one_shot_counts(self.P, self.TRIALS, ref))
        assert len(placed) == workers - 1
        self.assert_same_next_draws(gen, ref)

    def test_consecutive_calls_continue_the_stream(self, monkeypatch, placed):
        self.set_cpus(monkeypatch, 3)
        p2 = np.linspace(0.9, 0.1, 13)
        gen, ref = stream(22), stream(22)
        self.predraw(1, 1, gen, ref)
        for p, trials in ((self.P, self.TRIALS), (p2, 3 * BLOCK_UNIFORMS // 13 + 2)):
            np.testing.assert_array_equal(bernoulli_counts(p, trials, gen),
                                          one_shot_counts(p, trials, ref))
        self.assert_same_next_draws(gen, ref)

    def test_other_generators_fill_one_range(self, monkeypatch, placed):
        self.set_cpus(monkeypatch, 5)
        gen, ref = np.random.default_rng(23), np.random.default_rng(23)
        self.predraw(3, 1, gen, ref)
        np.testing.assert_array_equal(bernoulli_counts(self.P, self.TRIALS, gen),
                                      one_shot_counts(self.P, self.TRIALS, ref))
        assert placed == []
        self.assert_same_next_draws(gen, ref)

    # Widths about the uint8 -> uint16 switch of the counts; CPUs drive the range count.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(width=st.sampled_from([1, 7, 255, 256, 257]), cpus=st.integers(1, 5),
           span=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1),
           doubles=st.integers(0, 5), int32s=st.integers(0, 1), ones=st.booleans())
    @example(width=256, cpus=3, span=2.5, seed=0, doubles=1, int32s=1, ones=True)
    def test_property_equals_one_shot_table(self, width, cpus, span, seed, doubles, int32s, ones):
        trials = 1 + int(span * (BLOCK_UNIFORMS // width))  # up to five blocks
        p = np.ones(width) if ones else stream(seed).random(width)
        gen, ref = stream(seed), stream(seed)
        self.predraw(doubles, int32s, gen, ref)
        with mock.patch.object(detection, "_available_cpus", lambda: cpus):
            counts = bernoulli_counts(p, trials, gen)
        assert counts.dtype == np.min_scalar_type(width)
        np.testing.assert_array_equal(counts, one_shot_counts(p, trials, ref))
        if ones:  # 256 hits must not wrap to 0 in the counts
            assert np.all(counts == width)
        self.assert_same_next_draws(gen, ref)

    def test_worker_exception_propagates(self, monkeypatch, placed):
        self.set_cpus(monkeypatch, 3)
        real_fill = detection._fill_counts

        def fill(gen, p, out, rows):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            real_fill(gen, p, out, rows)

        monkeypatch.setattr(detection, "_fill_counts", fill)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            bernoulli_counts(self.P, self.TRIALS, stream(24))
        assert len(placed) == 2
        assert threading.active_count() == threads

    def test_array_p_counts_its_positions_in_c_order(self):
        p = np.full((2, 3), 0.5)
        gen, ref, clicks = stream(1), stream(1), stream(1)
        counts = bernoulli_counts(p, 5, gen)
        np.testing.assert_array_equal(counts, one_shot_counts(p.ravel(), 5, ref))
        assert counts[0] == trial_clicks(p, clicks).sum()
        self.assert_same_next_draws(gen, ref)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exact_zero_and_one_columns_at_any_worker_count(self, monkeypatch, placed, workers):
        self.set_cpus(monkeypatch, workers)
        p = np.array([0.0, 1.0, 0.25, 0.0, 1.0, 2.0**-53, np.nextafter(1.0, 0.0)])
        gen, ref = stream(26), stream(26)
        self.predraw(1, 1, gen, ref)
        counts = bernoulli_counts(p, self.TRIALS, gen)
        np.testing.assert_array_equal(counts, one_shot_counts(p, self.TRIALS, ref))
        assert counts.min() >= 2 and counts.max() <= 5  # both p = 1 hit, neither p = 0 does
        assert len(placed) == workers - 1
        self.assert_same_next_draws(gen, ref)

    # MT19937 builds a double from two 32-bit words, so the integer limits would
    # misread its raw output: generators other than Philox compare their doubles.
    @pytest.mark.parametrize("make", [lambda: np.random.Generator(np.random.MT19937(5)),
                                      lambda: np.random.default_rng(5)], ids=["MT19937", "PCG64"])
    def test_other_generators_compare_their_doubles(self, make):
        p = np.array([0.0, 1.0, 0.3, 2.0**-53, 0.75])
        trials = 2 * BLOCK_UNIFORMS // p.size + 3
        gen, ref = make(), make()
        self.predraw(1, 1, gen, ref)
        np.testing.assert_array_equal(bernoulli_counts(p, trials, gen),
                                      one_shot_counts(p, trials, ref))
        self.assert_same_next_draws(gen, ref)
        np.testing.assert_array_equal(trial_clicks(p, gen), ref.random(p.shape) < p)
        self.assert_same_next_draws(gen, ref)

    def test_platform_without_cpu_affinity_counts_the_same(self, monkeypatch):
        # Without os.sched_getaffinity (macOS, Windows) the ranges follow os.cpu_count().
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert detection._available_cpus() == (os.cpu_count() or 1)
        np.testing.assert_array_equal(bernoulli_counts(self.P, self.TRIALS, stream(25)),
                                      one_shot_counts(self.P, self.TRIALS, stream(25)))


class TestWordLimits:
    """The engine's hit rule on raw Philox words against numpy's double of the same word."""

    def test_philox_double_is_the_top_53_bits_of_one_word(self):
        words = np.random.Philox(key=7).random_raw(1000)
        doubles = np.random.Generator(np.random.Philox(key=7)).random(1000)
        np.testing.assert_array_equal(doubles, (words >> np.uint64(11)) * 2.0**-53)

    @pytest.mark.parametrize("p, limit", [
        (0.0, 0),
        (5e-324, 2**11),
        (2.0**-53, 2**11),
        (np.nextafter(2.0**-53, 1.0), 2**12),
        (0.5, 2**63),
        (np.nextafter(1.0, 0.0), 2**64 - 2**11),
        (1.0, 2**64),
    ])
    def test_limit_rule_at_its_edges(self, p, limit):
        limits, certain = detection._word_limits(np.array([p]))
        assert limits.dtype == np.uint64
        assert (2**64 if certain.size else int(limits[0])) == limit
        raws = [r for r in (0, limit - 1, limit, limit + 1, 2**64 - 1) if 0 <= r < 2**64]
        hits = detection._word_hits(np.array(raws, dtype=np.uint64)[:, None], limits, certain)
        assert hits[:, 0].tolist() == [(r >> 11) * 2.0**-53 < p for r in raws]


class TestEstimate:
    def test_wilson_brackets_the_rate(self):
        low, high = Estimate(50, 100).wilson
        assert low < 0.5 < high
        # Exact: rounding left these ends 2.8e-17 and 1 ulp outside the rate at 0/7 and 10/10.
        assert Estimate(0, 7).wilson[0] == 0.0 and Estimate(10, 10).wilson[1] == 1.0

    @pytest.mark.parametrize("successes,trials", [
        (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (0, 7), (3, 17), (10, 10), (50, 100),
        (1, 1000), (999, 1000), (0, 10**6), (333_333, 10**6), (10**6, 10**6),
    ])
    def test_wilson_matches_scipy(self, successes, trials):
        interval = binomtest(successes, trials).proportion_ci(method="wilson")
        assert Estimate(successes, trials).wilson == pytest.approx(
            (interval.low, interval.high), rel=0, abs=1e-14)

    @pytest.mark.parametrize("successes", [-1, 101, 2.5, math.nan])
    def test_rejects_successes_outside_the_trials(self, successes):
        # -1 and 101 raised a bare "math domain error"; 2.5 and NaN were accepted.
        with pytest.raises(ValueError, match=r"successes must be an integer in \[0, 100\]"):
            Estimate(successes, 100)

    @pytest.mark.parametrize("trials", [0, -3, 2.5, math.inf])
    def test_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match=r"trials must be an integer >= 1"):
            Estimate(0, trials)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10**12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
           st.lists(st.integers(0, 3), min_size=1, max_size=50))
    @example((0, 1), [0])
    @example((1, 1), [3])
    @example((0, 10**12), [0, 1])
    @example((10**12, 10**12), [1, 0, 2])
    def test_property_rate_interval_and_count(self, counts, events):
        successes, trials = counts
        estimate = Estimate(successes, trials)
        assert estimate.rate == successes / trials
        low, high = estimate.wilson
        assert 0.0 <= low <= estimate.rate <= high <= 1.0
        mask = np.array(events, dtype=np.uint8)
        assert Estimate.of(mask) == Estimate(np.count_nonzero(mask), mask.size)


class TestHelpers:
    def test_stream_accepts_generator(self):
        gen = stream(4)
        assert stream(gen) is gen

    def test_stream_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            stream(-1)
