"""The input domain: every range check on a caller's values, written once.

Each guard returns the value converted for computing, or raises ``ValueError``
naming the quantity and its limit.  Each asks "inside the range?", which NaN
never is.  Grids and tables pass their estimated entry count to ``size``
before allocating anything, so an oversized request fails at once.

Streamed work is cut by two sizes: ``BLOCK_ENTRIES`` entries per row block or
trial block, and ``CHUNK_ROWS`` trial-table rows per CSV chunk.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Largest accepted |a|: sums of N^2 terms of size |a|^2 stay finite for any N < 1e54.
MAX_AMPLITUDE = 1e100
# Entries (numbers held at once) one grid or table may need: 80 MB as float64.
WORK_BUDGET = 10**7
# A number held in a report row or transcript takes up to ~400 bytes once
# formatted as JSON, so it counts as this many entries.
REPORT_ENTRIES = 50
BLOCK_ENTRIES = 1 << 16  # one row block of an N-wide temporary, or trials per block
# Not BLOCK_ENTRIES // columns: that raised `pkd --trials 100000 --format csv` 37.0 -> 38.8 MB RSS.
CHUNK_ROWS = 1 << 12


def _limit_text(limit: float) -> str:
    return f"MAX_AMPLITUDE = {MAX_AMPLITUDE:g}" if limit == MAX_AMPLITUDE else f"{limit!r}"


def amplitudes(values, name: str = "amplitudes", *, minimum: int = 1,
               limit: float = MAX_AMPLITUDE) -> np.ndarray:
    """A 1-D complex array of at least ``minimum`` finite entries with |a| <= ``limit``."""
    # asarray plus a reshape costs half of atleast_1d, and this guard runs once
    # per point of the figure2/compare sweeps.
    try:
        arr = np.asarray(values, dtype=complex)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be finite with magnitude <= {_limit_text(limit)}, "
                         "got an integer beyond the float range") from None
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < minimum:
        raise ValueError(f"{name} must be a 1-D sequence of length >= {minimum}, "
                         f"got shape {arr.shape}")
    if limit < math.inf:  # NaN and infinite entries fail |a| <= limit; no isfinite pass
        with np.errstate(over="ignore"):  # |a| overflowing to inf is out of range anyway
            inside = np.abs(arr) <= limit
    else:
        inside = np.isfinite(arr)
    if not inside.all():
        raise ValueError(f"{name} must be finite with magnitude <= {_limit_text(limit)}, "
                         f"got {complex(arr[~inside][0])}")
    return arr


def amplitude(value, name: str, *, limit: float = MAX_AMPLITUDE) -> complex:
    """One finite complex number with |a| <= ``limit``; a sequence of any length but 1 is rejected."""
    arr = np.asarray(value)  # converted by ``amplitudes``, which names an overflow
    if arr.size != 1:
        raise ValueError(f"{name} must be a single complex number, got shape {arr.shape}")
    return complex(amplitudes(arr.reshape(1), name, limit=limit)[0])


def _interval(value, name: str, limit: float, positive: bool, limit_text: str):
    """A real in [0, limit] ((0, limit] if ``positive``): a float, or a float array for arrays."""
    # Scalars skip numpy's per-call overhead; the exact-type test skips the ABC check's.
    scalar = type(value) is float or isinstance(value, numbers.Real)
    try:
        arr = float(value) if scalar else np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        got = "an integer beyond the float range"
    else:
        inside = ((arr > 0.0) if positive else (arr >= 0.0)) & (arr <= limit)
        if inside if scalar else inside.all():
            return arr if scalar or arr.ndim else float(arr)
        got = repr(float(arr if scalar or arr.ndim == 0 else arr[~inside].flat[0]))
    raise ValueError(f"{name} must lie in {'(' if positive else '['}0, {limit_text}], got {got}")


def magnitude(value, name: str, *, limit: float = MAX_AMPLITUDE, positive: bool = False):
    """A real in [0, limit] ((0, limit] if ``positive``): a float, or a float array for arrays."""
    return _interval(value, name, limit, positive, _limit_text(limit))


def real(value, name: str) -> float:
    """A finite real number, as a float."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not -math.inf < number < math.inf:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return number


def integer(value, name: str, low: int, high: int | None = None) -> int:
    """An integer in [low, high] (no upper limit without ``high``); non-integers are rejected."""
    integral = type(value) is int or isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer())
    number = int(value) if integral else None
    if number is None or not low <= number <= (number if high is None else high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value}")
    return number


def fraction(value, name: str, *, positive: bool = False):
    """A real in [0, 1] ((0, 1] if ``positive``): a float, or a float array for arrays."""
    return _interval(value, name, 1.0, positive, "1")


def size(entries, what: str) -> None:
    """Reject a request whose estimated entry count exceeds ``WORK_BUDGET``."""
    if not entries <= WORK_BUDGET:
        # An integer estimate may be too large to format as a float.
        shown = f"{entries:.3g}" if not entries >= 1e300 else "more than 1e+300"
        raise ValueError(f"{what} would need about {shown} entries, above the "
                         f"work budget WORK_BUDGET = {WORK_BUDGET:.0e}")
