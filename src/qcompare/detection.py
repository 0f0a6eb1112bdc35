"""Photon-detector models and the Monte Carlo engine for click statistics.

Counts registered on a coherent mode of mean photon number ``m`` are Poisson
with mean ``efficiency * m + dark_mean``: inefficiency is Bernoulli thinning
(mean scaling for a Poisson) and dark counts are an independent additive
Poisson term per detector per window.  A non-number-resolving detector
reduces the count to click / no-click.

Randomness contract: every stochastic entry point accepts either an integer
seed or a ready ``numpy.random.Generator``.  Seeds feed a counter-based
Philox stream; inside the trial engine ``bernoulli_counts``, trial ``i``
consumes the ``i``-th fixed-width row of that stream (one uniform per
position, e.g. per watched detector, inverted through the exact Poisson
CDF), so trials are independent and reproducible.  Rows are drawn in blocks
of about ``BLOCK_UNIFORMS`` uniforms that consume the stream in order, so
the result and every later draw equal those of one full-table draw; each
block is reduced to per-trial counts at once, so memory stays bounded
whatever the number of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear import CoherentRegister, LinearNetwork, apply_network

Z95 = 1.959963984540054  # two-sided 95% normal quantile
BLOCK_UNIFORMS = 1 << 18  # uniforms drawn per block by ``bernoulli_counts`` (2 MiB of float64)


@dataclass(frozen=True)
class DetectorModel:
    """Detector parameters; the defaults describe an ideal detector."""

    efficiency: float = 1.0
    dark_mean: float = 0.0
    number_resolving: bool = True

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if not self.dark_mean >= 0.0:
            raise ValueError(f"dark_mean must be nonnegative, got {self.dark_mean}")

    def registered_mean(self, mean_photon: float) -> float:
        """Mean of the registered count distribution for a given incident mean."""
        return self.efficiency * mean_photon + self.dark_mean


IDEAL = DetectorModel()


@dataclass(frozen=True)
class DetectionRecord:
    """Counts registered on a set of modes in a single detection window."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def clicked(self) -> bool:
        return any(c > 0 for c in self.counts)


@dataclass(frozen=True)
class TrialStats:
    """Empirical event rate with its Wilson 95% confidence interval."""

    rate: float
    wilson_low: float
    wilson_high: float
    successes: int
    trials: int


def stream(seed) -> np.random.Generator:
    """Counter-based random stream for a seed; Generators pass through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed))


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def sample_counts(mean_photon, model: DetectorModel = IDEAL, rng=0, size=None):
    """Sample registered counts for modes of the given mean photon numbers.

    ``mean_photon`` is a scalar or an array of means, one independent count
    per entry, drawn in order.  Returns an int for a scalar mean without
    ``size``, otherwise an int array, distributed as
    Poisson(efficiency * mean + dark_mean); a non-number-resolving model
    reduces the result to 0/1.
    """
    means = np.asarray(mean_photon, dtype=float)
    if not np.all(means >= 0.0):
        raise ValueError(f"mean photon number must be nonnegative, got {mean_photon}")
    counts = stream(rng).poisson(model.registered_mean(means), size=size)
    if not model.number_resolving:
        counts = np.minimum(counts, 1)
    return int(counts) if np.ndim(counts) == 0 else counts


def click_probabilities(means, model: DetectorModel = IDEAL) -> np.ndarray:
    """Per-detector click probabilities 1 - exp(-(efficiency * mean + dark))."""
    means = np.asarray(means, dtype=float)
    if np.any(means < 0):
        raise ValueError("mean photon numbers must be nonnegative")
    return 1.0 - np.exp(-(model.efficiency * means + model.dark_mean))


def bernoulli_counts(p, trials: int, rng) -> np.ndarray:
    """Per-trial number of hits among independent Bernoulli(p[j]) positions.

    Trial ``i`` draws one uniform ``u`` per position and counts ``u < p[j]``;
    for a click probability ``1 - exp(-mean)`` that is exactly the event that
    the inverse-CDF Poisson count is nonzero.  Rows come from the stream in
    blocks of ``BLOCK_UNIFORMS // len(p)`` trials, each reduced to counts
    before the next is drawn, so no (trials, len(p)) table is ever held.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    p = np.asarray(p, dtype=float)
    gen = stream(rng)
    rows = max(1, BLOCK_UNIFORMS // max(p.size, 1))
    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        counts[start:stop] = np.count_nonzero(gen.random((stop - start, p.size)) < p, axis=1)
    return counts


def run_trials(
    register: CoherentRegister,
    network: LinearNetwork,
    watched_modes,
    model: DetectorModel = IDEAL,
    trials: int = 10_000,
    rng=0,
) -> TrialStats:
    """Monte Carlo difference-detection rate for a register sent through a network.

    Watches the listed output modes over ``trials`` repetitions and reports
    the fraction of trials in which at least one watched detector registered
    a count, with a Wilson 95% interval.
    """
    watched = sorted(set(int(m) for m in watched_modes))
    if not watched:
        raise ValueError("watched_modes must not be empty")
    if any(m < 0 or m >= network.n_modes for m in watched):
        raise ValueError(f"watched modes {watched} out of range for {network.n_modes} modes")
    means = apply_network(network, register).mode_means()[watched]
    clicks = bernoulli_counts(click_probabilities(means, model), trials, rng)
    successes = int(np.count_nonzero(clicks))
    low, high = wilson_interval(successes, trials)
    return TrialStats(successes / trials, low, high, successes, trials)
