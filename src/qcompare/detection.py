"""Photon-detector models and the Monte Carlo engine for click statistics.

A detector clicks or stays silent.  On a coherent mode of mean photon number
``m`` it clicks with probability ``1 - exp(-(efficiency * m + dark_mean))``,
the chance that its Poisson count is nonzero: inefficiency thins the mean and
dark counts add an independent term per detector per window.

Randomness contract: every stochastic entry point accepts either an integer
seed or a ready ``numpy.random.Generator``.  Seeds feed a counter-based
Philox stream.  ``trial_clicks`` gives the per-position clicks of one trial:
one uniform double per position, in C order, hits where it lies below the
position's click probability.  The trial engine ``bernoulli_counts`` gives
only each trial's number of hits, which is all its callers read.  With the
probabilities fixed, that count is one draw from their Poisson-binomial
distribution, so the engine builds the distribution once per call and
spends one 64-bit word per trial, ``integers(0, 2**64, dtype=uint64)``, on
every generator; trial ``i`` reads the ``i``-th word, so trials are
independent and reproducible.  The count is the number of the
distribution's sorted CDF limits at or below the word: every word is
compared with the first few limits, the head, and the words that pass them
all binary-search the rest, the tail; which limits form the head is chosen
once per call, from the distribution alone.  The words are drawn in blocks
of ``domain.BLOCK_ENTRIES`` trials, so besides one block in flight the
engine holds only the counts: one byte per trial up to 255 positions, two
up to 65 535.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domain
from .linear import CoherentRegister, LinearNetwork, apply_network

Z95 = 1.959963984540054  # two-sided 95% normal quantile
# Hong's recurrence cuts end entries below this; the lost mass stays far below a word's 2**-64.
NEGLIGIBLE = 2.0**-100
# One word's search through a count's upper limits, in comparison passes over every word: a
# pass costs about 0.4 ns per word, a search with its gather and scatter 15-27 ns per word.
SEARCH_COST = 48.0


@dataclass(frozen=True)
class DetectorModel:
    """Detector parameters; the defaults describe an ideal detector."""

    efficiency: float = 1.0
    dark_mean: float = 0.0

    def __post_init__(self):
        domain.fraction(self.efficiency, "efficiency")
        domain.magnitude(self.dark_mean, "dark_mean")


IDEAL = DetectorModel()


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo count: ``successes`` of ``trials``, with its rate and Wilson 95% interval."""

    successes: int
    trials: int

    def __post_init__(self):
        object.__setattr__(self, "trials", domain.integer(self.trials, "trials", 1))
        object.__setattr__(self, "successes",
                           domain.integer(self.successes, "successes", 0, self.trials))

    @classmethod
    def of(cls, events) -> Estimate:
        """The count of nonzero entries among ``events``, one entry per trial."""
        return cls(int(np.count_nonzero(events)), np.size(events))

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def wilson(self) -> tuple[float, float]:
        """Wilson score interval (95%, z = ``Z95``), widened to the rate if rounding left it out."""
        z, n, p = Z95, self.trials, self.rate
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def stream(seed) -> np.random.Generator:
    """Counter-based random stream for a seed; Generators pass through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    seed = domain.integer(seed, "seed", 0, 2**128 - 1)  # Philox keys are 128-bit
    return np.random.Generator(np.random.Philox(key=seed))


def click_probabilities(means, model: DetectorModel = IDEAL) -> np.ndarray:
    """Per-detector click probabilities 1 - exp(-(efficiency * mean + dark))."""
    means = domain.magnitude(means, "mean photon number", limit=math.inf)
    # A blind detector sees no light, however much: 0 * inf would be NaN.
    detected = model.efficiency * means if model.efficiency else np.zeros_like(means)
    return 1.0 - np.exp(-(detected + model.dark_mean))


def trial_clicks(p, rng) -> np.ndarray:
    """Clicks (0/1, as ``uint8``) of one trial at independent Bernoulli(p[j]) positions.

    Each position draws one uniform double, in C order, and clicks when it
    lies below ``p[j]``.  Every ``p[j]`` must lie in [0, 1].
    """
    p = np.asarray(domain.fraction(p, "hit probability p"))
    return (stream(rng).random(p.shape) < p).astype(np.uint8)  # a scalar for a scalar p


def _count_limits(p: np.ndarray) -> tuple[int, np.ndarray]:
    """``(base, limits)``: a trial's count is ``base`` plus the number of ``limits`` <= its word.

    Hong's recurrence (*Comput. Stat. Data Anal.* 59:41, 2013) builds the
    distribution of the number of hits one position at a time, ``pmf <-
    pmf * (1 - p_j) + shift(pmf) * p_j``; every term is non-negative, so each
    entry keeps its relative accuracy, and exact p = 0 or 1 columns add no
    mass or shift it whole.  An inner entry is a mean of two kept ones, so
    only an end entry can fall below ``NEGLIGIBLE``; it is cut at once, which
    keeps the work per position to the width of the distribution.  The
    limits are ``P(count <= k) * 2**64``, each rounded from whichever of the
    CDF and the survival function is the smaller, so neither tail loses its
    mass to rounding.  They stay sorted where the two meet: the median's mass
    is at least 1 / (2 M + 2), far above their rounding errors of about
    M eps.  A limit of 0 (every trial exceeds k) goes into ``base``; one of
    2**64 (no trial does) is dropped.
    """
    base, pmf = 0, np.ones(1)
    for pj in p.tolist():
        grown = np.empty(pmf.size + 1)
        np.multiply(pmf, 1.0 - pj, out=grown[:-1])
        grown[-1] = 0.0
        grown[1:] += pmf * pj
        low_end = int(grown[0] < NEGLIGIBLE)
        base += low_end
        pmf = grown[low_end:grown.size - int(grown[-1] < NEGLIGIBLE)]
    cdf = np.cumsum(pmf[:-1])  # P(count <= base + k)
    sf = np.cumsum(pmf[:0:-1])[::-1]  # P(count > base + k)
    low = cdf < sf
    scaled = np.rint(np.where(low, cdf, sf) * 2.0**64).astype(np.uint64)  # at most 2**63
    base += int(np.count_nonzero(low & (scaled == 0)))
    return base, np.where(low, scaled, -scaled)[scaled != 0]  # -scaled is 2**64 - scaled


def _head_length(limits: np.ndarray) -> int:
    """How many of the sorted ``limits`` to compare with every word; the rest are searched.

    Comparing ``j`` limits costs ``j`` passes over the words; the words at or
    above the ``j``-th limit, a share ``1 - limits[j - 1] / 2**64`` of them,
    then cost ``SEARCH_COST`` passes each to search the remaining limits.
    ``j`` minimises the sum; ``len(limits)`` means no search.
    """
    searched = 1.0 - np.concatenate(([0.0], limits.astype(float) * 2.0**-64))
    searched[-1] = 0.0  # past the last limit nothing is left to search
    return int(np.argmin(np.arange(limits.size + 1) + SEARCH_COST * searched))


def _count_blocks(p: np.ndarray, trials: int, gen):
    """Yield ``(start, counts)`` for ``trials`` trials, ``domain.BLOCK_ENTRIES`` at a time.

    Builds the distribution of the count of hits among the positions of the
    flat ``p`` once (``_count_limits``), then draws each block's words and
    reduces them to counts of type ``numpy.min_scalar_type(p.size)`` before
    drawing the next.  Every block's counts are written into one buffer, so
    the next block overwrites them.  A trial's count is ``base`` plus the
    number of limits at or below its word: each word is compared with the
    first ``_head_length`` limits, and the words at or above the last of them
    look up the rest with one ``searchsorted``.  The limits are sorted, so the
    two parts add up to the full comparison sum.
    """
    base, limits = _count_limits(p)
    head = _head_length(limits)
    tail = limits[head:]
    dtype = np.min_scalar_type(p.size)
    counts_buffer = np.empty(min(domain.BLOCK_ENTRIES, trials), dtype=dtype)
    above_buffer = np.empty(counts_buffer.size, dtype=bool)
    for start in range(0, trials, domain.BLOCK_ENTRIES):
        words = gen.integers(0, 2**64, size=min(domain.BLOCK_ENTRIES, trials - start),
                             dtype=np.uint64)
        counts, above = counts_buffer[:words.size], above_buffer[:words.size]
        counts.fill(base)  # never above p.size
        for limit in limits[:head]:
            counts += np.greater_equal(words, limit, out=above)
        if tail.size:  # indices, not the mask: a sparse boolean gather costs ~30 ns per hit
            searched = np.flatnonzero(above) if head else slice(None)
            counts[searched] += np.searchsorted(tail, words[searched], side="right").astype(dtype)
        del words  # so that one block of words is alive while the next is drawn
        yield start, counts


def bernoulli_counts(p, trials: int, rng) -> np.ndarray:
    """Per-trial number of hits among independent Bernoulli(p[j]) positions.

    Each trial's count is drawn directly from its distribution
    (``_count_limits``, built once per call): trial ``i`` takes the ``i``-th
    word of ``integers(0, 2**64, dtype=uint64)`` on any generator, and its
    count is ``base`` plus the number of limits at or below that word.  The
    head of the limits is compared with every word and the tail is
    binary-searched by the words that pass the head (``_count_blocks``).  The
    stream moves on by exactly ``trials`` such words.  The counts come in the
    narrowest unsigned type that holds ``p.size``,
    ``numpy.min_scalar_type(p.size)``: ``uint8`` up to 255 positions and
    ``uint16`` up to 65 535, so a caller's arithmetic on them may wrap.  The
    words are drawn ``domain.BLOCK_ENTRIES`` trials at a time, each block
    reduced into the counts before the next is drawn.  Every ``p[j]`` must
    lie in [0, 1].
    """
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial counts")
    p = np.asarray(domain.fraction(p, "hit probability p")).ravel()
    counts = np.empty(trials, dtype=np.min_scalar_type(p.size))
    for start, block in _count_blocks(p, trials, stream(rng)):
        counts[start:start + block.size] = block
    return counts


def run_trials(
    register: CoherentRegister,
    network: LinearNetwork,
    watched_modes,
    model: DetectorModel = IDEAL,
    trials: int = 10_000,
    rng=0,
) -> Estimate:
    """Monte Carlo difference-detection rate for a register sent through a network.

    Watches the listed output modes over ``trials`` repetitions and counts
    the trials in which at least one watched detector registered a count.
    """
    watched = sorted({domain.integer(m, "watched mode", 0, network.n_modes - 1)
                      for m in watched_modes})
    domain.integer(len(watched), "number of watched modes", 1)
    means = apply_network(network, register).mode_means()[watched]
    return Estimate.of(bernoulli_counts(click_probabilities(means, model), trials, rng))
