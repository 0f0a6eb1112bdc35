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
clicks, ``trial_clicks``, are the engine's trial 0.  On a Philox stream a
uniform is one raw 64-bit word, ``(raw >> 11) * 2**-53``, so the engine
compares the words with integer limits and never builds the doubles; the
hits are the same bit for bit.  Contiguous ranges of rows are filled in
parallel, one thread per available CPU, each from a Philox generator placed
at its range's first word (the stream can be entered at any position), so
the result and every later draw equal those of one full-table draw whatever
the number of CPUs.  Each range is drawn in blocks that together hold about
``BLOCK_UNIFORMS`` words and are reduced to per-trial counts at once, so
besides one block in flight the engine holds only the counts: one byte per
trial up to 255 positions, two up to 65 535.
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
# An M = 64, 10^6-trial lock test takes as long at 2^16 as at 2^20 (189-199 ms, 2 threads).
BLOCK_UNIFORMS = 1 << 18  # draws in flight in ``bernoulli_counts``, all threads (2 MiB of uint64)


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


def _word_limits(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hit rule ``u < p`` on raw Philox words: uint64 limits and the positions that always hit.

    numpy's Philox double is ``(raw >> 11) * 2**-53``, so ``u < p`` holds
    exactly when ``raw < ceil(p * 2**53) * 2**11``: 0 at p = 0, which no word
    is below.  At p = 1 the limit is 2**64, which no uint64 holds; those
    positions get limit 0 and their flat indices are returned for
    ``_word_hits`` to set.  The dtypes are explicit so that no promotion rule
    can round a limit.
    """
    certain = p == 1.0
    steps = np.ceil(np.where(certain, 0.0, p) * 2.0**53).astype(np.uint64)
    return steps << np.uint64(11), np.flatnonzero(certain)


def _word_hits(words: np.ndarray, limits: np.ndarray, certain: np.ndarray, out=None):
    """Hits of raw words (positions on the last axis): ``words < limits``, or at ``certain``."""
    hits = np.less(words, limits, out=out)
    if certain.size:
        hits[..., certain] = True
    return hits


def _hit_rows(gen: np.random.Generator, p: np.ndarray, rows: int):
    """A function ``draw(n)``: the hits ``u < p`` of the next ``n <= rows`` trials, as (n, p.size).

    Each trial draws one uniform per position of the flat ``p``.  On a Philox
    stream the uniforms are never built: its raw words are compared with
    ``_word_limits(p)``, computed once here.  Other generators (MT19937 builds
    a double from two 32-bit words) compare their doubles with ``p``.
    """
    hits = np.empty((rows, p.size), dtype=bool)
    if isinstance(gen.bit_generator, np.random.Philox):
        bits = gen.bit_generator
        limits, certain = _word_limits(p)

        def draw(n):
            words = bits.random_raw(n * p.size).reshape(n, p.size)
            return _word_hits(words, limits, certain, out=hits[:n])
    else:
        uniforms = np.empty((rows, p.size))

        def draw(n):
            gen.random(out=uniforms[:n])
            return np.less(uniforms[:n], p, out=hits[:n])
    return draw


def _fill_counts(gen: np.random.Generator, p: np.ndarray, out: np.ndarray, rows: int) -> None:
    """Write the hit counts of ``out.size`` consecutive trials into ``out``, ``rows`` at a time."""
    rows = min(rows, out.size)
    draw = _hit_rows(gen, p, rows)
    for start in range(0, out.size, rows):
        n = min(rows, out.size - start)
        np.add.reduce(draw(n), axis=1, dtype=out.dtype, out=out[start:start + n])


def trial_clicks(p, rng) -> np.ndarray:
    """Clicks (0/1, as ``uint8``) of one trial at independent Bernoulli(p[j]) positions.

    This is trial 0 of ``bernoulli_counts`` before its row sum: the same
    uniforms, one per position in C order, the same hit rule and the same
    stream position afterwards.  Every ``p[j]`` must lie in [0, 1].
    """
    p = np.asarray(domain.fraction(p, "hit probability p"))
    clicks = _hit_rows(stream(rng), p.ravel(), 1)(1).reshape(p.shape).view(np.uint8)
    return clicks[()]  # a scalar for a scalar p


def bernoulli_counts(p, trials: int, rng) -> np.ndarray:
    """Per-trial number of hits among independent Bernoulli(p[j]) positions.

    Trial ``i`` draws one uniform ``u`` per position of ``p``, in C order,
    and counts ``u < p[j]``, so trial 0 is ``trial_clicks(p).sum()``; for a
    click probability ``1 - exp(-mean)`` that is exactly the event that the
    inverse-CDF Poisson count is nonzero.  On a Philox stream no uniform is
    built: each raw 64-bit word is compared with an integer limit that gives
    the same hit bit for bit (``_word_limits``); another generator's doubles
    are compared with ``p``.  The counts come in the narrowest unsigned type
    that holds ``p.size``, ``numpy.min_scalar_type(p.size)``: ``uint8`` up to
    255 positions and ``uint16`` up to 65 535, so a caller's arithmetic on
    them may wrap.  The trials are split into contiguous ranges, one per
    available CPU (at most one per block of ``BLOCK_UNIFORMS`` draws).  The
    calling thread fills the first range with the caller's generator; a
    thread per further range fills it from a Philox generator placed at the
    range's first word.  Each range is drawn in blocks of
    ``BLOCK_UNIFORMS // ranges`` words, each row-summed straight into the
    counts before the next is drawn, so no (trials, p.size) table is ever
    held.  The counts, and the caller's stream position afterwards, equal
    those of one full-table draw of doubles whatever the number of CPUs.  A
    generator other than Philox fills a single range.  Every ``p[j]`` must
    lie in [0, 1].
    """
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial counts")
    p = np.asarray(domain.fraction(p, "hit probability p")).ravel()
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
