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
CDF), so trials are independent and reproducible.  Contiguous ranges of
rows are filled in parallel, one thread per available CPU, each from a
Philox generator placed at its range's first uniform (the stream can be
entered at any position), so the result and every later draw equal those
of one full-table draw whatever the number of CPUs.  Each range is drawn in
blocks that together hold about ``BLOCK_UNIFORMS`` uniforms and are reduced
to per-trial counts at once, so memory stays bounded whatever the number of
trials.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import domain
from .linear import CoherentRegister, LinearNetwork, apply_network

Z95 = 1.959963984540054  # two-sided 95% normal quantile
BLOCK_UNIFORMS = 1 << 18  # uniforms in flight in ``bernoulli_counts``, all threads (2 MiB of float64)
MAX_POISSON_MEAN = 9.2e18  # numpy's Poisson sampler accepts means up to about 9.22e18


@dataclass(frozen=True)
class DetectorModel:
    """Detector parameters; the defaults describe an ideal detector."""

    efficiency: float = 1.0
    dark_mean: float = 0.0
    number_resolving: bool = True

    def __post_init__(self):
        domain.fraction(self.efficiency, "efficiency")
        domain.magnitude(self.dark_mean, "dark_mean")

    def registered_mean(self, mean_photon: float) -> float:
        """Mean of the registered count distribution for a given incident mean."""
        return self.efficiency * mean_photon + self.dark_mean


IDEAL = DetectorModel()


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
    seed = domain.integer(seed, "seed", 0, 2**128 - 1)  # Philox keys are 128-bit
    return np.random.Generator(np.random.Philox(key=seed))


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    trials = domain.integer(trials, "trials", 1)
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
    means = domain.magnitude(mean_photon, "mean photon number", limit=math.inf)
    registered = domain.magnitude(model.registered_mean(means), "mean count", limit=MAX_POISSON_MEAN)
    counts = stream(rng).poisson(registered, size=size)
    if not model.number_resolving:
        counts = np.minimum(counts, 1)
    return int(counts) if np.ndim(counts) == 0 else counts


def click_probabilities(means, model: DetectorModel = IDEAL) -> np.ndarray:
    """Per-detector click probabilities 1 - exp(-(efficiency * mean + dark))."""
    means = domain.magnitude(means, "mean photon number", limit=math.inf)
    return 1.0 - np.exp(-(model.efficiency * means + model.dark_mean))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _philox_at(state: dict, offset: int) -> np.random.Generator:
    """A Philox generator placed ``offset`` uniforms past the stream position ``state``.

    Each counter value yields four uniforms: the rest of the current
    buffer is used first, whole counter blocks are skipped by ``advance``
    (which clears the buffer and the spare 32-bit draw), and the last 0-3
    uniforms are drawn raw.
    """
    bits = np.random.Philox(key=0)
    bits.state = state
    buffered = min(offset, 4 - state["buffer_pos"])
    bits.random_raw(buffered)
    if offset > buffered:
        blocks, rest = divmod(offset - buffered, 4)
        bits.advance(blocks)
        bits.random_raw(rest)
        placed = bits.state
        placed["has_uint32"], placed["uinteger"] = state["has_uint32"], state["uinteger"]
        bits.state = placed
    return np.random.Generator(bits)


def _fill_counts(gen: np.random.Generator, p: np.ndarray, out: np.ndarray, rows: int) -> None:
    """Write the hit counts of ``out.size`` consecutive trials into ``out``, ``rows`` at a time."""
    rows = min(rows, out.size)
    uniforms = np.empty((rows, p.size))
    hits = np.empty((rows, p.size), dtype=bool)
    for start in range(0, out.size, rows):
        n = min(rows, out.size - start)
        gen.random(out=uniforms[:n])
        np.less(uniforms[:n], p, out=hits[:n])
        np.sum(hits[:n], axis=1, out=out[start:start + n])


def bernoulli_counts(p, trials: int, rng) -> np.ndarray:
    """Per-trial number of hits among independent Bernoulli(p[j]) positions.

    Trial ``i`` draws one uniform ``u`` per position and counts ``u < p[j]``;
    for a click probability ``1 - exp(-mean)`` that is exactly the event that
    the inverse-CDF Poisson count is nonzero.  The trials are split into
    contiguous ranges, one per available CPU (at most one per block of
    ``BLOCK_UNIFORMS`` uniforms).  The calling thread fills the first range
    with the caller's generator; a thread per further range fills it from a
    Philox generator placed at the range's first uniform.  Each range is
    drawn in blocks of ``BLOCK_UNIFORMS // ranges`` uniforms, reduced to
    counts before the next, so no (trials, len(p)) table is ever held.  The
    counts, and the caller's stream position afterwards, equal those of one
    full-table draw whatever the number of CPUs.  A generator other than
    Philox fills a single range.
    """
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial counts")
    p = np.asarray(p, dtype=float)
    gen = stream(rng)
    width = max(p.size, 1)
    blocks = -(-trials // max(1, BLOCK_UNIFORMS // width))
    philox = isinstance(gen.bit_generator, np.random.Philox)
    ranges = min(_available_cpus(), blocks) if philox else 1
    rows = max(1, BLOCK_UNIFORMS // ranges // width)
    bounds = [trials * k // ranges for k in range(ranges + 1)]
    state = gen.bit_generator.state if ranges > 1 else None
    gens = [gen] + [_philox_at(state, start * p.size) for start in bounds[1:-1]]
    counts = np.empty(trials, dtype=np.int64)
    errors = []

    def fill(k):
        try:
            _fill_counts(gens[k], p, counts[bounds[k]:bounds[k + 1]], rows)
        except BaseException as exc:  # re-raised by the calling thread below
            errors.append(exc)

    workers = [threading.Thread(target=fill, args=(k,)) for k in range(1, ranges)]
    for worker in workers:
        worker.start()
    try:
        _fill_counts(gen, p, counts[:bounds[1]], rows)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    if ranges > 1:  # the last range's generator stops where one full-table draw would
        gen.bit_generator.state = gens[-1].bit_generator.state
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
    watched = sorted({domain.integer(m, "watched mode", 0, network.n_modes - 1)
                      for m in watched_modes})
    domain.integer(len(watched), "number of watched modes", 1)
    means = apply_network(network, register).mode_means()[watched]
    clicks = bernoulli_counts(click_probabilities(means, model), trials, rng)
    successes = int(np.count_nonzero(clicks))
    low, high = wilson_interval(successes, trials)
    return TrialStats(successes / trials, low, high, successes, trials)
