"""Photon-detector models and the Monte Carlo engine for click statistics.

A detector clicks or stays silent.  On a coherent mode of mean photon number
``m`` it clicks with probability ``1 - exp(-(efficiency * m + dark_mean))``,
the chance that its Poisson count is nonzero: inefficiency thins the mean and
dark counts add an independent term per detector per window.

Randomness contract: every stochastic entry point accepts either an integer
seed or a ready ``numpy.random.Generator``.  Seeds feed a counter-based
Philox stream; inside the trial engine ``bernoulli_counts``, trial ``i``
consumes the ``i``-th fixed-width row of that stream (one uniform per
position, e.g. per watched detector, compared with its click probability),
so trials are independent and reproducible.  A single trial's per-position
clicks, ``trial_clicks``, are the engine's trial 0.  Contiguous ranges of
rows are filled in parallel, one thread per available CPU, each from a
Philox generator placed at its range's first uniform (the stream can be
entered at any position), so the result and every later draw equal those
of one full-table draw whatever the number of CPUs.  Each range is drawn in
blocks that together hold about ``BLOCK_UNIFORMS`` uniforms and are reduced
to per-trial counts at once, so besides one block in flight the engine holds
only the counts: one byte per trial up to 255 positions, two up to 65 535.
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
# Not domain.BLOCK_ENTRIES: at 2^16 an M = 64, 10^6-trial lock test slowed from 264 to 300 ms.
BLOCK_UNIFORMS = 1 << 18  # uniforms in flight in ``bernoulli_counts``, all threads (2 MiB of float64)


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
        np.add.reduce(hits[:n], axis=1, dtype=out.dtype, out=out[start:start + n])


def trial_clicks(p, rng) -> np.ndarray:
    """Clicks (0/1, as ``uint8``) of one trial at independent Bernoulli(p[j]) positions.

    This is trial 0 of ``bernoulli_counts`` before its row sum: the same
    uniforms, one per position in C order, and the same stream position
    afterwards.  Every ``p[j]`` must lie in [0, 1].
    """
    p = np.asarray(domain.fraction(p, "hit probability p"))
    return (stream(rng).random(p.shape) < p).view(np.uint8)


def bernoulli_counts(p, trials: int, rng) -> np.ndarray:
    """Per-trial number of hits among independent Bernoulli(p[j]) positions.

    Trial ``i`` draws one uniform ``u`` per position and counts ``u < p[j]``;
    for a click probability ``1 - exp(-mean)`` that is exactly the event that
    the inverse-CDF Poisson count is nonzero.  The counts come in the
    narrowest unsigned type that holds ``len(p)``,
    ``numpy.min_scalar_type(len(p))``: ``uint8`` up to 255 positions and
    ``uint16`` up to 65 535, so a caller's arithmetic on them may wrap.  The
    trials are split into contiguous ranges, one per available CPU (at most
    one per block of ``BLOCK_UNIFORMS`` uniforms).  The calling thread fills
    the first range with the caller's generator; a thread per further range
    fills it from a Philox generator placed at the range's first uniform.
    Each range is drawn in blocks of ``BLOCK_UNIFORMS // ranges`` uniforms,
    each row-summed straight into the counts before the next is drawn, so no
    (trials, len(p)) table is ever held.  The counts, and the caller's stream
    position afterwards, equal those of one full-table draw whatever the
    number of CPUs.  A generator other than Philox fills a single range.
    Every ``p[j]`` must lie in [0, 1].
    """
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial counts")
    p = np.asarray(domain.fraction(p, "hit probability p"))
    gen = stream(rng)
    width = max(p.size, 1)
    blocks = -(-trials // max(1, BLOCK_UNIFORMS // width))
    philox = isinstance(gen.bit_generator, np.random.Philox)
    ranges = min(_available_cpus(), blocks) if philox else 1
    rows = max(1, BLOCK_UNIFORMS // ranges // width)
    bounds = [trials * k // ranges for k in range(ranges + 1)]
    state = gen.bit_generator.state if ranges > 1 else None
    gens = [gen] + [_philox_at(state, start * p.size) for start in bounds[1:-1]]
    counts = np.empty(trials, dtype=np.min_scalar_type(p.size))  # a count never exceeds p.size
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
