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
independent and reproducible.  The words are drawn in blocks of
``domain.BLOCK_ENTRIES`` trials, so besides one block in flight the engine
holds only the counts: one byte per trial up to 255 positions, two up to
65 535.
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


def bernoulli_counts(p, trials: int, rng) -> np.ndarray:
    """Per-trial number of hits among independent Bernoulli(p[j]) positions.

    Each trial's count is drawn directly from its distribution
    (``_count_limits``, built once per call): trial ``i`` takes the ``i``-th
    word of ``integers(0, 2**64, dtype=uint64)`` on any generator, and its
    count is ``base`` plus the number of limits at or below that word.  The
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
    gen = stream(rng)
    base, limits = _count_limits(p)
    counts = np.full(trials, base, dtype=np.min_scalar_type(p.size))  # never above p.size
    for start in range(0, trials, domain.BLOCK_ENTRIES):
        block = counts[start:start + domain.BLOCK_ENTRIES]
        words = gen.integers(0, 2**64, size=block.size, dtype=np.uint64)
        for limit in limits:
            block += words >= limit
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
