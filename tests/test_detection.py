import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, chisquare

from qcompare import detection, domain
from qcompare.detection import (
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
    def test_draws_one_double_per_position(self, seed, shape):
        p = stream(100 + seed).random(shape)
        gen, ref = stream(seed), stream(seed)
        for g in (gen, ref):  # leave a spare 32-bit half, which must carry over
            g.integers(0, 1000, size=1, dtype=np.int32)
        np.testing.assert_array_equal(trial_clicks(p, gen), ref.random(shape) < p)
        assert_same_next_draws(gen, ref)

    def test_scalar_p_gives_a_scalar(self):
        click = trial_clicks(1.0, 0)
        assert np.ndim(click) == 0 and click == 1 and click.dtype == np.uint8

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


def assert_same_next_draws(gen, ref):
    # int32 first: a spare half of a 64-bit draw must carry over
    np.testing.assert_array_equal(gen.integers(0, 2**31, size=3, dtype=np.int32),
                                  ref.integers(0, 2**31, size=3, dtype=np.int32))
    np.testing.assert_array_equal(gen.random(5), ref.random(5))


def exact_weights(p):
    """``(weights, whole)``: P(count = k) is ``weights[k] / whole``, summed over all 2**M outcomes."""
    ps = [Fraction(x) for x in p]  # a float converts to its exact binary value
    pmf = [Fraction(0)] * (len(ps) + 1)
    for outcome in itertools.product((0, 1), repeat=len(ps)):
        prob = Fraction(1)
        for hit, pj in zip(outcome, ps):
            prob *= pj if hit else 1 - pj
        pmf[sum(outcome)] += prob
    whole = math.lcm(*(mass.denominator for mass in pmf))
    return [mass.numerator * (whole // mass.denominator) for mass in pmf], whole


def assert_limits_match(p, weights, whole):
    """The engine's limits give P(count <= k) to 2**-65 plus 8 M eps of the smaller tail.

    P(count = k) is exactly ``weights[k] / whole``.  Rounding a limit to the
    nearest 64-bit word costs at most 2**-65; the recurrence and the sums are
    accurate relative to the tail they sum, whichever is smaller.  The check
    runs on integers.
    """
    base, limits = detection._count_limits(np.asarray(p, dtype=float))
    assert limits.dtype == np.uint64 and np.all(limits[1:] >= limits[:-1])
    assert base + len(limits) <= len(weights) - 1
    implied = [0] * base + [int(x) for x in limits] + [2**64] * (len(weights) - base - len(limits))
    below = 0  # P(count <= k) * whole
    for k, weight in enumerate(weights):
        below += weight
        error = abs(implied[k] * whole - below * 2**64) * 2**52  # in units of 2**-116 / whole
        assert error <= whole * 2**51 + 8 * len(p) * min(below, whole - below) * 2**64, k


def assert_fits_exact_distribution(rng):
    """A Pearson chi-square test of one fixed stream against the exact distribution.

    A correct sampler fails it with probability 1e-6 over seeds: its false-alarm rate.
    """
    p = [0.0, 1.0, 0.02, 0.3, 0.5, 0.77, 0.999, 1e-4, 0.1, 0.6]
    trials = 10**6
    weights, whole = exact_weights(p)
    expected = np.array([trials * Fraction(weight, whole) for weight in weights], dtype=float)
    observed = np.bincount(bernoulli_counts(p, trials, rng), minlength=len(p) + 1)
    assert not observed[expected == 0].any()
    # Pool each sparse end (expected count below 5) into its nearest dense bin.
    dense = np.flatnonzero(expected >= 5)
    low, high = dense[0], dense[-1] + 1
    obs, exp = observed[low:high].copy(), expected[low:high].copy()
    for part, whole in ((obs, observed), (exp, expected)):
        part[0] += whole[:low].sum()
        part[-1] += whole[high:].sum()
    assert chisquare(obs, exp).pvalue > 1e-6


EDGE_PS = [0.0, 1.0, 2.0**-53, float(np.nextafter(1.0, 0.0))]
# The j-th hit probability of a width sweep, one rule per regime of the count's distribution.
WIDTH_FAMILIES = {
    "spread": lambda j: (0.1 + 0.37 * j) % 1.0,
    "rare": lambda j: 10.0 ** -(3 + j % 4),  # mass piled on 0, a thin upper tail
    "near-certain": lambda j: 1.0 - 10.0 ** -(4 + j % 3),  # mass piled on M, a thin lower tail
    "with-edges": lambda j: (EDGE_PS + [0.3, 0.6])[j % 6],
}


class TestCountDistribution:
    """``_count_limits`` against the exact distribution of the count."""

    @pytest.mark.parametrize("p", [
        [0.5],
        EDGE_PS,
        EDGE_PS + [0.25, 1e-300, 0.3, 0.7, 1.0 - 1e-12, 0.9],
        [1e-3] * 10,  # an upper tail of 1.2e-7 from 3 hits: 2000 words off if read from the CDF
        [1.0 - 1e-6] * 10,  # a lower tail of 1e-60
        [2.0**-53] * 10,
    ], ids=["half", "edges", "edges-mixed", "rare", "near-certain", "eps"])
    def test_matches_exact_enumeration(self, p):
        assert_limits_match(p, *exact_weights(p))

    # Every width up to 10, where the 2**M outcomes are still cheap to enumerate.
    @pytest.mark.parametrize("width", range(1, 11))
    @pytest.mark.parametrize("family", sorted(WIDTH_FAMILIES))
    def test_matches_exact_enumeration_at_every_width(self, family, width):
        p = [WIDTH_FAMILIES[family](j) for j in range(width)]
        assert_limits_match(p, *exact_weights(p))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 1.0)),
                    min_size=0, max_size=8))
    def test_property_matches_exact_enumeration(self, p):
        assert_limits_match(p, *exact_weights(p))

    # Beyond the widths that can be enumerated: the tail search needs sorted limits.
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3000),
           st.lists(st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 1.0)),
                    min_size=1, max_size=5))
    def test_property_limits_are_sorted_at_any_width(self, width, cycle):
        base, limits = detection._count_limits(np.resize(np.array(cycle), width))
        assert limits.dtype == np.uint64 and np.all(limits[1:] >= limits[:-1])
        assert base + limits.size <= width

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 16)])
    def test_cut_ends_keep_a_wide_distribution(self, p):
        # 3000 positions: the recurrence cuts ends below NEGLIGIBLE as it goes.
        m = 3000
        hit, miss = p.numerator, p.denominator - p.numerator
        weights = [math.comb(m, k) * hit**k * miss ** (m - k) for k in range(m + 1)]
        assert_limits_match([float(p)] * m, weights, p.denominator**m)


class TestBernoulliCounts:
    P = np.linspace(0.05, 0.9, 7)

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

    @pytest.mark.parametrize("width", [0, 1, 7, 255, 256, 300])
    def test_no_hit_probability_gives_zero(self, width):
        counts = bernoulli_counts(np.zeros(width), 1000, 2)
        assert counts.dtype == np.min_scalar_type(width) and not counts.any()

    @pytest.mark.parametrize("width", [1, 255, 256, 300])
    def test_certain_hits_give_the_width_without_wrapping(self, width):
        counts = bernoulli_counts(np.ones(width), 1000, 3)
        assert counts.dtype == np.min_scalar_type(width)  # uint16 from 256 on
        assert np.all(counts == width)

    def test_exact_columns_shift_the_count(self):
        # Two certain and three impossible positions add 2 to the count of the rest.
        p = np.array([0.0, 1.0, 0.25, 0.0, 1.0, 0.6, 0.0])
        rest = np.array([0.25, 0.6])
        base, limits = detection._count_limits(p)
        assert (base, limits.tolist()) == (2, detection._count_limits(rest)[1].tolist())
        np.testing.assert_array_equal(bernoulli_counts(p, 5000, 26),
                                      2 + bernoulli_counts(rest, 5000, 26))

    def test_array_p_counts_all_its_positions(self):
        p = np.array([[0.5, 0.1, 0.9], [0.3, 1.0, 0.0]])
        np.testing.assert_array_equal(bernoulli_counts(p, 500, 1), bernoulli_counts(p.ravel(), 500, 1))

    # Each row has one trial count per generator; the middle ones end at block edges.
    @pytest.mark.parametrize("trials", [1, domain.BLOCK_ENTRIES - 1, domain.BLOCK_ENTRIES,
                                        2 * domain.BLOCK_ENTRIES + 1])
    @pytest.mark.parametrize("bits", [np.random.Philox, np.random.PCG64, np.random.MT19937])
    def test_one_word_per_trial(self, bits, trials):
        p = np.array([0.0, 1.0, 0.3, 2.0**-53, 0.75, 0.5])
        gen, ref = np.random.Generator(bits(5)), np.random.Generator(bits(5))
        for g in (gen, ref):  # leave a spare 32-bit half, which must carry over
            g.random(1)
            g.integers(0, 1000, size=1, dtype=np.int32)
        counts = bernoulli_counts(p, trials, gen)
        words = ref.integers(0, 2**64, size=trials, dtype=np.uint64)
        base, limits = detection._count_limits(p)
        np.testing.assert_array_equal(counts, base + (words[:, None] >= limits).sum(axis=1))
        assert_same_next_draws(gen, ref)

    def test_consecutive_calls_continue_the_stream(self):
        gen, ref = stream(22), stream(22)
        first = bernoulli_counts(self.P, 1000, gen)
        second = bernoulli_counts(self.P[::-1], 3000, gen)
        np.testing.assert_array_equal(first, bernoulli_counts(self.P, 1000, ref))
        np.testing.assert_array_equal(second, bernoulli_counts(self.P[::-1], 3000, ref))
        assert_same_next_draws(gen, ref)

    def test_goodness_of_fit_at_a_million_trials(self):
        assert_fits_exact_distribution(2013)

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937])
    def test_goodness_of_fit_on_other_generators(self, bits):
        assert_fits_exact_distribution(np.random.Generator(bits(2013)))

    def test_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        bernoulli_counts(np.full(64, 0.003), 4 * domain.BLOCK_ENTRIES, 4)
        assert started == []


# (p, which limits the words are compared with): every limit (no search), a head
# and a searched tail, or none (every word searched).
SPLIT_SHAPES = {
    "lock-64": (np.linspace(0.002, 0.01, 64), "head-and-tail"),
    "single": ([0.3], "head-only"),
    "alice-10": (np.full(10, 0.58), "head-only"),
    "binomial-2000": (np.full(2000, 0.3), "tail-only"),
    "binomial-20000": (np.full(20000, 0.5), "tail-only"),
}


class TestHeadAndTail:
    """The head comparisons plus the tail search against the full comparison sum."""

    @pytest.mark.parametrize("trials", [domain.BLOCK_ENTRIES - 1, domain.BLOCK_ENTRIES,
                                        2 * domain.BLOCK_ENTRIES + 1])
    @pytest.mark.parametrize("bits", [np.random.Philox, np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES))
    def test_counts_equal_the_comparison_sum(self, shape, bits, trials):
        p, split = SPLIT_SHAPES[shape]
        base, limits = detection._count_limits(np.asarray(p, dtype=float))
        head = detection._head_length(limits)
        assert split == {0: "tail-only", limits.size: "head-only"}.get(head, "head-and-tail")
        gen, ref = np.random.Generator(bits(8)), np.random.Generator(bits(8))
        counts = bernoulli_counts(p, trials, gen)
        words = ref.integers(0, 2**64, size=trials, dtype=np.uint64)
        expected = np.full(trials, base, dtype=np.int64)
        for limit in limits:  # one pass per limit: a (trials, limits) table would take 170 MB
            expected += words >= limit
        assert counts.dtype == np.min_scalar_type(len(p))
        np.testing.assert_array_equal(counts, expected)
        assert_same_next_draws(gen, ref)

    @pytest.mark.parametrize("shape", ["lock-64", "single", "alice-10", "binomial-2000"])
    def test_words_at_the_limits(self, shape):
        # A word equal to a limit reaches it; random words hit one with probability 2**-64.
        p = np.asarray(SPLIT_SHAPES[shape][0], dtype=float)
        base, limits = detection._count_limits(p)
        words = np.concatenate([limits - np.uint64(1), limits, limits + np.uint64(1),
                                np.array([0, 2**64 - 1], dtype=np.uint64)])

        class Words:  # hands out the words above, as many as asked for
            def integers(self, low, high, size, dtype):
                assert (low, high, dtype) == (0, 2**64, np.uint64)
                drawn, self.rest = self.rest[:size], self.rest[size:]
                return drawn

        gen = Words()
        gen.rest = words
        blocks = list(detection._count_blocks(p, words.size, gen))
        assert [start for start, _ in blocks] == [0] and gen.rest.size == 0
        expected = base + (words[:, None] >= limits).sum(axis=1)
        np.testing.assert_array_equal(blocks[0][1], expected)

    @pytest.mark.parametrize("limits", [
        [2**64 - 2 ** (64 - k) for k in range(1, 12)],  # j compared leave 2**-j of the words
        [1, 2, 3],  # nearly every word passes them all: compare, search nothing
        [2**62, 2**63, 2**64 - 2**60],
    ], ids=["halving", "low", "spread"])
    def test_head_minimises_passes_plus_searches(self, limits):
        limits = np.array(limits, dtype=np.uint64)
        below = np.concatenate(([0.0], limits.astype(float) * 2.0**-64))
        cost = [j + detection.SEARCH_COST * (1.0 - below[j] if j < limits.size else 0.0)
                for j in range(limits.size + 1)]
        assert detection._head_length(limits) == int(np.argmin(cost))


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
