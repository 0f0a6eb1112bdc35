import math
import sys
import threading

import numpy as np
import pytest

from qcompare import detection
from qcompare.detection import (
    BLOCK_UNIFORMS,
    IDEAL,
    DetectorModel,
    bernoulli_counts,
    run_trials,
    sample_counts,
    stream,
    wilson_interval,
)
from qcompare.linear import CoherentRegister, make_balanced_multiport, make_beam_splitter


def three_sigma(p, n):
    return 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)


class TestDetectorModel:
    def test_defaults_are_ideal(self):
        assert IDEAL.efficiency == 1.0
        assert IDEAL.dark_mean == 0.0
        assert IDEAL.number_resolving

    @pytest.mark.parametrize("kwargs", [
        {"efficiency": -0.1}, {"efficiency": 1.2}, {"dark_mean": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorModel(**kwargs)


class TestSampleCounts:
    def test_zero_mean_ideal_never_clicks(self):
        counts = sample_counts(0.0, IDEAL, rng=1, size=1000)
        assert np.all(counts == 0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(-0.5, IDEAL, rng=0)

    def test_click_rate_matches_two_state_success_probability(self):
        # mean |alpha-beta|^2/2 with alpha=1, beta=-1
        mean = 2.0
        n = 100_000
        counts = sample_counts(mean, IDEAL, rng=7, size=n)
        rate = np.count_nonzero(counts) / n
        expected = 1.0 - math.exp(-mean)
        assert abs(rate - expected) < three_sigma(expected, n)

    def test_efficiency_thins_the_mean(self):
        model = DetectorModel(efficiency=0.5)
        n = 100_000
        counts = sample_counts(2.0, model, rng=11, size=n)
        rate = np.count_nonzero(counts) / n
        expected = 1.0 - math.exp(-1.0)
        assert abs(rate - expected) < three_sigma(expected, n)
        assert np.mean(counts) == pytest.approx(1.0, abs=3 * math.sqrt(1.0 / n))

    def test_threshold_detector_reports_clicks(self):
        model = DetectorModel(number_resolving=False)
        counts = sample_counts(5.0, model, rng=3, size=500)
        assert set(np.unique(counts)) <= {0, 1}
        assert sample_counts(5.0, model, rng=3) in (0, 1)

    def test_determinism(self):
        a = sample_counts(1.3, IDEAL, rng=42, size=50)
        b = sample_counts(1.3, IDEAL, rng=42, size=50)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", [IDEAL, DetectorModel(0.7, 0.05, number_resolving=False)])
    def test_array_of_means_equals_scalar_draws_in_order(self, model):
        means = np.array([[0.0, 2.5, 0.3], [7.0, 0.01, 1.2]])
        g_scalar, g_array = stream(9), stream(9)
        scalar = [[sample_counts(float(m), model, g_scalar) for m in row] for row in means]
        counts = sample_counts(means, model, g_array)
        assert counts.shape == means.shape
        assert counts.tolist() == scalar
        assert g_array.random() == g_scalar.random()

    def test_negative_mean_in_array_rejected(self):
        with pytest.raises(ValueError):
            sample_counts([0.5, -0.1], IDEAL, rng=0)


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
        assert stats.wilson_low < expected < stats.wilson_high

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


class TestHelpers:
    def test_wilson_interval_brackets_the_rate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
        assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-12)

    def test_stream_accepts_generator(self):
        gen = stream(4)
        assert stream(gen) is gen

    def test_stream_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            stream(-1)
