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

import functools
import math
import sys
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
    truncation deficit but must never exceed one beyond float slack.  The
    caller's array is copied, so no later write reaches the validated state.
    """

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        arr = np.array(self.amps, dtype=complex)
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
    a = abs(domain.amplitude(alpha, "alpha"))
    return max(20, math.ceil(a * a + 10.0 * a))


def coherent_fock(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha> in the number basis: amps[n] = e^{-|a|^2/2} a^n / sqrt(n!).

    The recurrence starts from the vacuum amplitude, so |alpha| is limited to
    ``MAX_COHERENT_AMPLITUDE`` (about 37.64), where that amplitude stops being
    a normal double and the state could no longer be represented faithfully.
    """
    cutoff = domain.integer(cutoff, "cutoff", 1)
    domain.size(cutoff + 1, "the coherent state")
    alpha = domain.amplitude(alpha, "alpha", limit=MAX_COHERENT_AMPLITUDE)
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
    xi = domain.amplitude(xi, "xi", limit=math.nextafter(0.5, 0.0))  # |xi| < 1/2
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


def _bs_blocks(transmittance: float, cutoff: int):
    """Yield the beam-splitter rotations of the total-photon-number blocks 0..2*cutoff.

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

    Only rows and columns lo..hi of block n, lo = max(0, n - cutoff) and
    hi = min(n, cutoff), the ones a state with that cutoff reaches, are
    computed and yielded, so blocks 0..cutoff are whole.  Those rows and
    columns of block n+1 need no others of block n, and each entry is computed
    as from the whole block.
    """
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    block = np.ones((1, 1))
    yield block
    for n in range(2 * cutoff):
        lo, size = max(0, n - cutoff), block.shape[0]
        lo_next = max(0, n + 1 - cutoff)
        j = np.arange(lo_next, min(n + 1, cutoff) + 1)  # rows and columns of block n+1
        padded = np.zeros((size + 2, size + 2))  # rows and columns lo-1..hi+1 of block n
        padded[1:-1, 1:-1] = block
        below = slice(lo_next - lo, lo_next - lo + j.size)  # rows (columns) j-1 of block n
        at = slice(below.start + 1, below.stop + 1)  # rows (columns) j
        rise, fall = np.sqrt(j), np.sqrt(n + 1 - j)
        raised_a = rise[:, None] * padded[below]
        raised_b = fall[:, None] * padded[at]
        block = ((t * raised_a + r * raised_b)[:, at] * (fall / (n + 1))
                 + (r * raised_a - t * raised_b)[:, below] * (rise / (n + 1)))
        yield block


# One slot, as callers group their applies by (transmittance, cutoff).  A miss
# holds the old entry while it builds the new one; at cutoff 170 each is 80 MB.
@functools.lru_cache(maxsize=1)
def _bs_windows(transmittance: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached beam-splitter windows of one (transmittance, cutoff) pair.

    Returns ``(windows, slots)``.  The amplitudes of anti-diagonal n of a
    state, a + b = n, are indexed by a = lo..hi, lo = max(0, n - cutoff) and
    hi = min(n, cutoff), both on input and on output.  ``windows[n]`` is block n
    on those rows and columns, its columns reversed (the block's column is b,
    and lo + hi = n), zero-padded to (cutoff+1, cutoff+1).  ``slots`` gives
    each flat index a * (cutoff+1) + b its place n * (cutoff+1) + a - lo in the
    padded (2*cutoff+1, cutoff+1) array of anti-diagonals.
    """
    d = cutoff + 1
    domain.size((2 * cutoff + 1) * d * d, "the beam-splitter windows")
    windows = np.zeros((2 * cutoff + 1, d, d))
    for n, block in enumerate(_bs_blocks(transmittance, cutoff)):
        windows[n, :block.shape[0], :block.shape[0]] = block[:, ::-1]
    a, b = np.divmod(np.arange(d * d), d)
    slots = (a + b) * d + a - np.maximum(0, a + b - cutoff)
    windows.setflags(write=False)
    slots.setflags(write=False)
    return windows, slots


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
    windows, slots = _bs_windows(transmittance, cutoff)
    diagonals = np.zeros((2 * cutoff + 1, cutoff + 1), dtype=complex)
    diagonals.reshape(-1)[slots] = state.amps.reshape(-1)
    # One real product per anti-diagonal, its real and imaginary parts as two columns.
    rotated = np.matmul(windows, diagonals.view(float).reshape(*diagonals.shape, 2))
    # Drop each array once read: at cutoff 170 the windows are 80 MB of an 82 MB peak.
    del diagonals
    out = rotated.view(complex).reshape(-1)[slots]
    del rotated
    return FockVector(out.reshape(cutoff + 1, cutoff + 1), cutoff)


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
