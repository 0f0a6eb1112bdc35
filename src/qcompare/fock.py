"""Truncated photon-number-basis simulation: the package's brute-force oracle.

States live on one or two modes with a hard per-mode photon cutoff.  The
beam splitter is applied exactly inside each total-photon-number block (a
block-diagonal rotation), so photon number is conserved by construction and
the only approximation anywhere is the cutoff itself.  Every state reports
its truncation deficit ``1 - ||v||^2`` so callers can budget tolerances.

No closed form is used for the odd-photon detection statistics of unequal
squeezed vacua; those probabilities are read off the simulated output state
directly.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import domain

NORM_SLACK = 1e-12
# Largest |alpha| whose vacuum amplitude exp(-|alpha|^2/2) is a normal double.
MAX_COHERENT_AMPLITUDE = math.sqrt(-2.0 * math.log(sys.float_info.min))


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over the photon-number basis of one or two modes.

    ``amps`` is indexed by photon number, ``amps[n]`` for one mode or
    ``amps[n_a, n_b]`` for two.  The norm may fall short of one by the
    truncation deficit but must never exceed one beyond float slack.
    """

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        d = domain.integer(self.cutoff, "cutoff", 1) + 1
        if arr.shape not in ((d,), (d, d)):
            raise ValueError(f"amps shape {arr.shape} does not match cutoff {self.cutoff}")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if not norm_sq <= 1.0 + NORM_SLACK:  # a NaN or infinite amplitude fails too
            raise ValueError(f"norm^2 = {norm_sq} exceeds 1 beyond slack")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def modes(self) -> int:
        return self.amps.ndim

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    @property
    def deficit(self) -> float:
        """Probability mass lost to truncation, 1 - ||v||^2."""
        return 1.0 - self.norm_sq


def overlap(a: FockVector, b: FockVector) -> complex:
    """Inner product <a|b>; both states must share mode count and cutoff."""
    if a.amps.shape != b.amps.shape:
        raise ValueError("states have different shapes")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2."""
    return abs(overlap(a, b)) ** 2


def recommended_cutoff(alpha: complex) -> int:
    """Cutoff at which a coherent state's truncation deficit is far below 1e-10."""
    a = abs(alpha)
    return max(20, math.ceil(a * a + 10.0 * a))


def coherent_fock(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha> in the number basis: amps[n] = e^{-|a|^2/2} a^n / sqrt(n!).

    The recurrence starts from the vacuum amplitude, so |alpha| is limited to
    ``MAX_COHERENT_AMPLITUDE`` (about 37.64), where that amplitude stops being
    a normal double and the state could no longer be represented faithfully.
    """
    cutoff = domain.integer(cutoff, "cutoff", 1)
    domain.size(cutoff + 1, "the coherent state")
    alpha = complex(domain.amplitudes(alpha, "alpha", limit=MAX_COHERENT_AMPLITUDE)[0])
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return FockVector(amps, cutoff)


def squeezed_vacuum_fock(xi: complex, cutoff: int) -> tuple[FockVector, float]:
    """Squeezed vacuum ``s * exp(xi a^dag^2)|0>`` in the number basis.

    Only even photon numbers are populated: amps[2k] = s xi^k sqrt((2k)!) / k!.
    The norm series converges only for |xi| < 1/2, where the normalization
    constant is ``s = (1 - 4 |xi|^2)^{1/4}``; ``s`` is returned alongside the
    state.  The cutoff must be even so the top populated level is complete.
    """
    xi = complex(domain.amplitudes(xi, "xi", limit=math.nextafter(0.5, 0.0))[0])  # |xi| < 1/2
    if domain.integer(cutoff, "cutoff", 2) % 2:
        raise ValueError(f"cutoff must be even, got {cutoff}")
    domain.size(cutoff + 1, "the squeezed state")
    s = (1.0 - 4.0 * abs(xi) ** 2) ** 0.25
    amps = np.zeros(cutoff + 1, dtype=complex)
    coeff = complex(s)
    amps[0] = coeff
    for k in range(1, cutoff // 2 + 1):
        # sqrt((2k)!)/k! from sqrt((2k-2)!)/(k-1)!: multiply by sqrt(2k(2k-1))/k
        coeff = coeff * xi * math.sqrt(2 * k * (2 * k - 1)) / k
        amps[2 * k] = coeff
    return FockVector(amps, cutoff), s


def product_state(a: FockVector, b: FockVector) -> FockVector:
    """Two-mode product state from two single-mode states with equal cutoff."""
    if a.modes != 1 or b.modes != 1:
        raise ValueError("product_state needs two single-mode states")
    if a.cutoff != b.cutoff:
        raise ValueError("cutoffs differ")
    domain.size((a.cutoff + 1) ** 2, "the two-mode product state")
    return FockVector(np.outer(a.amps, b.amps), a.cutoff)


# Beam-splitter blocks 0..n for the most recently used transmittances, least
# recent first; a larger cutoff extends a list instead of rebuilding it.  One
# transmittance at cutoff 96 holds about 19 MB of blocks.
BLOCK_CACHE_TRANSMITTANCES = 3
_BLOCKS: dict[float, list[np.ndarray]] = {}
_BLOCKS_LOCK = threading.Lock()


def _bs_blocks(transmittance: float, n_max: int) -> list[np.ndarray]:
    """Beam-splitter rotations of the total-photon-number blocks 0..n_max (or more).

    Entry [j, k] of block n is the amplitude on output |j>_a |n-j>_b given
    input |n-k>_a |k>_b under a^dag -> t a^dag + r b^dag, b^dag -> r a^dag - t b^dag;
    up to signs each block is the Wigner matrix d^{n/2}(theta) with
    cos(theta/2) = t, so it is orthogonal.  Block n+1 follows from block n by the spin-1/2 coupling
    recurrence (Risbo, J. Geodesy 70:383, 1996)

        (n+1) |n+1-k, k> = sqrt(n+1-k) a^dag |n-k, k> + sqrt(k) b^dag |n+1-k, k-1>,

    whose two terms carry squared weights (n+1-k)/(n+1) and k/(n+1) summing
    to one, so rounding does not grow with n.  (Raising by a^dag alone, or
    summing the binomial expansion of the transformed operators, loses
    orthogonality to cancellation from n ~ 80 on.)
    """
    # Blocks 0..n_max hold sum_{n <= n_max} (n+1)^2 entries.
    domain.size((n_max + 1) * (n_max + 2) * (2 * n_max + 3) // 6, "the beam-splitter blocks")
    with _BLOCKS_LOCK:
        blocks = _BLOCKS.pop(transmittance, None)
        _evict_blocks(BLOCK_CACHE_TRANSMITTANCES - 1)  # room for this one, before building
    # Extend a private copy, so concurrent callers never see a partial list.
    blocks = list(blocks or [np.ones((1, 1))])
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    while len(blocks) <= n_max:
        prev = blocks[-1]
        n = prev.shape[0] - 1
        root = np.sqrt(np.arange(n + 2))
        rise, fall = root[1:], root[:0:-1]  # sqrt(j+1) and sqrt(n+1-j), j = 0..n
        raised_a = np.zeros((n + 2, n + 1))
        raised_a[1:] = rise[:, None] * prev
        raised_b = np.zeros((n + 2, n + 1))
        raised_b[:-1] = fall[:, None] * prev
        nxt = np.zeros((n + 2, n + 2))
        nxt[:, :-1] = (t * raised_a + r * raised_b) * (fall / (n + 1))
        nxt[:, 1:] += (r * raised_a - t * raised_b) * (rise / (n + 1))
        nxt.setflags(write=False)
        blocks.append(nxt)
    with _BLOCKS_LOCK:
        _BLOCKS[transmittance] = blocks
        _evict_blocks(BLOCK_CACHE_TRANSMITTANCES)  # concurrent builders may have published
    return blocks


def _evict_blocks(keep: int) -> None:
    """Drop the least recently used transmittances beyond ``keep``; hold ``_BLOCKS_LOCK``."""
    while len(_BLOCKS) > keep:
        del _BLOCKS[next(iter(_BLOCKS))]


def apply_bs_fock(state: FockVector, transmittance: float) -> FockVector:
    """Apply a beam splitter of given transmittance to a two-mode Fock state.

    Exact within the truncated space; amplitude rotated past the cutoff corner
    (total photon number above the cutoff) is dropped and shows up as
    truncation deficit.
    """
    if state.modes != 2:
        raise ValueError("apply_bs_fock needs a two-mode state")
    transmittance = domain.fraction(transmittance, "transmittance")
    cutoff = state.cutoff
    amps = state.amps
    blocks = _bs_blocks(transmittance, 2 * cutoff)
    out = np.zeros_like(amps)
    for n in range(2 * cutoff + 1):
        lo = max(0, n - cutoff)
        hi = min(n, cutoff)
        idx = np.arange(lo, hi + 1)
        vec = np.zeros(n + 1, dtype=complex)
        vec[idx] = amps[n - idx, idx]  # index = photon count in mode b
        if not np.any(vec):
            continue
        rot = blocks[n] @ vec
        out[idx, n - idx] = rot[idx]  # index = photon count in mode a
    return FockVector(out, cutoff)


def photon_distribution(state: FockVector, mode: int = 0) -> np.ndarray:
    """Photon-number probabilities of one mode (marginal for two-mode states).

    Nonnegative and summing to ``1 - deficit``.
    """
    mode = domain.integer(mode, "mode", 0, state.modes - 1)
    probs = np.abs(state.amps) ** 2
    if state.modes == 1:
        return probs
    return probs.sum(axis=1 - mode)


def odd_photon_probability(xi1: complex, xi2: complex, cutoff: int = 40) -> float:
    """Probability that a balanced splitter fed two squeezed vacua shows an odd count.

    Both inputs are ``s exp(xi a^dag^2)|0>`` states.  Equal squeezing sends
    only even photon numbers to both outputs, so any odd count certifies
    ``xi1 != xi2``; the returned value is the chance that at least one output
    mode carries an odd photon number.
    """
    sq1, _ = squeezed_vacuum_fock(xi1, cutoff)
    sq2, _ = squeezed_vacuum_fock(xi2, cutoff)
    joint = apply_bs_fock(product_state(sq1, sq2), 0.5)
    probs = np.abs(joint.amps) ** 2
    even = probs[0::2, 0::2].sum()
    return max(0.0, float(probs.sum() - even))


def su2_pass_state(n: int, cutoff: int) -> FockVector:
    """Two-mode entangled state that a balanced splitter maps onto |n>_a |0>_b.

    ``2^{-n/2} sum_k sqrt(C(n, k)) |n-k>_a |k>_b``; these states (and their
    mixtures) always pass the two-state comparison test even though they are
    not coherent.
    """
    n = domain.integer(n, "n", 0, cutoff)
    domain.size((cutoff + 1) ** 2, "the two-mode state")
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    scale = 2.0 ** (-0.5 * n)
    for k in range(n + 1):
        amps[n - k, k] = scale * math.sqrt(math.comb(n, k))
    return FockVector(amps, cutoff)


def squeezed_pass_state(m: int, n: int, cutoff: int) -> FockVector:
    """Two-mode state that the splitter maps onto |m>_a |n>_b, m and n even.

    These states always pass the squeezed-vacuum comparison: after the
    forward splitter both output photon numbers are even with certainty.
    """
    if domain.integer(m, "m", 0) % 2 or domain.integer(n, "n", 0) % 2:
        raise ValueError(f"m and n must be even, got ({m}, {n})")
    domain.integer(m + n, "m + n", 0, cutoff)
    domain.size((cutoff + 1) ** 2, "the two-mode state")
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    pref = 1.0 / math.sqrt(2.0**m * math.factorial(m)) / math.sqrt(2.0**n * math.factorial(n))
    for k in range(m + 1):
        for el in range(n + 1):
            a_idx = m + n - k - el
            b_idx = k + el
            amps[a_idx, b_idx] += (
                pref
                * math.comb(m, k)
                * math.comb(n, el)
                * (-1.0) ** el
                * math.sqrt(math.factorial(a_idx))
                * math.sqrt(math.factorial(b_idx))
            )
    return FockVector(amps, cutoff)
