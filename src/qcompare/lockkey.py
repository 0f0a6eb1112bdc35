"""Quantum lock-and-key: key generation, lock testing, attacks and leakage bounds.

A key is a string of M coherent states of common magnitude whose phases are
drawn independently and uniformly from the N-th roots of unity; the lock is
an identical string.  Validation compares key against lock position by
position on balanced beam splitters: any click in a difference mode rejects
the key, and a fully silent test returns the lock states undisturbed.

Security comes in two parts.  An adversary without a key is best off sending
coherent states (the pass probability is linear in the P-function, so the
optimum over all states is attained at a point mass); the phase-averaged
single-position pass probability has the closed Bessel form implemented in
``attack_pass_probability``.  A false key is therefore one magnitude ``beta``,
the same coherent state at every position (``beta = 0`` is the vacuum), and
``analytic_pass_probability`` prices it for a whole key and a real detector.
An adversary holding key copies is limited by the Holevo bound;
``holevo_entropy_finite`` and ``holevo_entropy_infinite`` evaluate the
single-position von Neumann entropy that caps the accessible information per
copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domain
from .detection import (IDEAL, DetectorModel, Estimate, bernoulli_counts, click_probabilities,
                        stream, trial_clicks)
from .errors import InvariantError
from .fock import MAX_COHERENT_AMPLITUDE, coherent_fock

# ---------------------------------------------------------------------------
# keys and lock tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyString:
    """M-position coherent key: common magnitude plus a phase index per position (ints)."""

    n_phases: int
    amplitude: float
    phases: tuple[int, ...]

    def __post_init__(self):
        n_phases = domain.integer(self.n_phases, "n_phases", 2)
        phases = tuple(domain.integer(k, "phase index", 0, n_phases - 1)
                       for k in np.atleast_1d(self.phases).tolist())
        domain.integer(len(phases), "key length", 1)
        object.__setattr__(self, "n_phases", n_phases)
        object.__setattr__(self, "amplitude", domain.magnitude(self.amplitude, "amplitude"))
        object.__setattr__(self, "phases", phases)

    def amplitudes(self) -> np.ndarray:
        """Coherent amplitude per position, amplitude * exp(2 pi i k / N)."""
        k = np.asarray(self.phases, dtype=float)
        return self.amplitude * np.exp(2j * np.pi * k / self.n_phases)


def generate_key(length: int, n_phases: int, amplitude: float, rng=0) -> KeyString:
    """Draw a key with i.i.d. uniform phase indices."""
    length = domain.integer(length, "key length", 1)
    domain.size(length, "the key")
    n_phases = domain.integer(n_phases, "n_phases", 2)
    return KeyString(n_phases, amplitude, stream(rng).integers(0, n_phases, size=length))


@dataclass(frozen=True)
class LockTestResult:
    passed: bool
    clicks: tuple[int, ...]
    recovered: np.ndarray  # (lock + candidate)/2 per position, valid on a silent test


def _compared(key: KeyString, candidate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock and candidate amplitudes, and the mean photon number of each difference mode."""
    lock = key.amplitudes()
    cand = domain.amplitudes(candidate, "candidate")
    if cand.shape != lock.shape:
        raise ValueError(f"candidate has {cand.size} positions, key has {lock.size}")
    return lock, cand, np.abs(lock - cand) ** 2 / 2.0


def lock_test(key: KeyString, candidate, model: DetectorModel = IDEAL, rng=0) -> LockTestResult:
    """Compare a candidate string against the lock, one balanced splitter per position.

    The test passes iff no difference mode clicks anywhere; ``clicks`` (0 or
    1 per position) is trial 0 of ``lock_test_pass_rate`` for the same seed.
    After a silent test the second splitter of each position returns
    |(lock + candidate)/2> in both halves, which equals the original lock
    state when the candidate matched; the per-position recovered amplitudes
    are reported either way.
    """
    lock, cand, diff_means = _compared(key, candidate)
    clicks = tuple(trial_clicks(click_probabilities(diff_means, model), rng).tolist())
    return LockTestResult(
        passed=not any(clicks),
        clicks=clicks,
        recovered=(lock + cand) / 2.0,
    )


def lock_test_pass_rate(key: KeyString, candidate, model: DetectorModel = IDEAL,
                        trials: int = 10_000, rng=0) -> Estimate:
    """Empirical probability that the candidate silently passes the lock test."""
    _, _, diff_means = _compared(key, candidate)
    clicks = bernoulli_counts(click_probabilities(diff_means, model), trials, rng)
    return Estimate(clicks.size - int(np.count_nonzero(clicks)), trials)  # no ``clicks == 0``


def photon_budget_ok(observed_mean_counts: float, length: int, amplitude: float) -> bool:
    """Mean-count audit: does an observed total match length * amplitude^2?

    Flags forgeries that pass the comparison by carrying the wrong energy
    (the vacuum attack in particular).  The total must lie within
    3 * sqrt(length) * amplitude counts of it.
    """
    length = domain.integer(length, "key length", 1)
    domain.size(length, "the key")
    amplitude = domain.magnitude(amplitude, "amplitude")
    observed = domain.magnitude(observed_mean_counts, "observed mean counts", limit=math.inf)
    return abs(observed - length * amplitude**2) <= 3.0 * math.sqrt(length) * amplitude


# ---------------------------------------------------------------------------
# attacks without a key
# ---------------------------------------------------------------------------

def _exp(x):
    """Elementwise exp rounded exactly as ``math.exp`` rounds.

    numpy's float64 ``exp`` runs its own SIMD kernel on AVX-512 CPUs, which
    differs from the C library's ``exp`` in the last bit on ~5% of arguments
    and so moves the golden-section optimum by a few 1e-8.  numpy's complex
    ``exp`` takes the real part from the C library's ``exp`` (times cos 0 = 1),
    so the vectorised scan keeps the scalar values bit for bit.
    """
    return np.exp(np.asarray(x, dtype=complex)).real


def _i0_series(x):
    """sum_k (x^2/4)^k / (k!)^2, each element stopped once its term is below 1e-18 of its sum."""
    q = 0.25 * x * x
    total = np.ones_like(x)
    term = np.ones_like(x)
    live = np.arange(x.size)  # elements still summing; term holds theirs
    k = 1
    while live.size:
        term = term * (q[live] / (k * k))
        total[live] += term
        more = term > 1e-18 * total[live]
        live, term = live[more], term[more]
        k += 1
    return total


def _i0_asymptotic(x):
    """sum_k ((2k-1)!!)^2 / (k! (8x)^k), each element stopped at its smallest term or 1e-18 of its sum."""
    total = np.ones_like(x)
    term = np.ones_like(x)
    live = np.arange(x.size)
    for k in range(1, 64):
        nxt = term * (2 * k - 1) ** 2 / (8.0 * x[live] * k)
        shrinking = nxt < term  # past its smallest term the series diverges
        live, nxt = live[shrinking], nxt[shrinking]
        total[live] += nxt
        more = nxt >= 1e-18 * total[live]
        live, term = live[more], nxt[more]
        if not live.size:
            break
    return total


def _i0_scaled_float(x: float) -> float:
    """``bessel_i0_scaled`` of one float, in Python floats.

    Each step is the IEEE operation, in the order, that ``_i0_series`` or
    ``_i0_asymptotic`` and ``_exp`` apply to one element, so the value is the
    array path's bit for bit (pinned by a test).
    """
    total = term = 1.0
    if x < 15.0:
        q = 0.25 * x * x
        k = 1
        while True:
            term = term * (q / (k * k))
            total += term
            if not term > 1e-18 * total:
                return total * math.exp(-x)
            k += 1
    for k in range(1, 64):
        nxt = term * (2 * k - 1) ** 2 / (8.0 * x * k)
        if not nxt < term:
            break
        total += nxt
        if not nxt >= 1e-18 * total:
            break
        term = nxt
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i0_scaled(x):
    """exp(-x) I0(x) elementwise: power series below 15, asymptotic expansion above.

    Takes a scalar (returns a float) or an array (returns an array of its
    shape); each element stops summing at its own termination test.  A
    scalar is summed in Python floats by ``_i0_scaled_float``, which skips
    numpy's per-call cost on one-element arrays (the golden-section refine of
    ``optimal_coherent_attack`` makes ~30 such calls) and returns the same
    bits as the array path.
    """
    x = domain.magnitude(x, "Bessel argument", limit=math.inf)
    if type(x) is float:
        return _i0_scaled_float(x)
    flat = x.ravel()
    out = np.empty_like(flat)
    small = flat < 15.0
    xs, xl = flat[small], flat[~small]
    out[small] = _i0_series(xs) * _exp(-xs)
    out[~small] = _i0_asymptotic(xl) / np.sqrt(2.0 * np.pi * xl)
    return out.reshape(x.shape)


def attack_pass_probability(amplitude: float, beta_mag, n_phases: int | None = None):
    """Phase-averaged chance that a coherent false key |beta> passes one position.

    With the key phase uniform on the circle the average collapses to
    ``exp(-(a^2 + b^2)/2) I0(a b)``; computed here in scaled form so large
    amplitudes stay finite.  ``beta_mag`` may be an array of magnitudes (the
    result then has its shape).  Passing ``n_phases`` averages over the
    discrete N-phase alphabet instead (cross-check path; beta taken real).
    """
    amplitude = domain.magnitude(amplitude, "amplitude")
    beta_mag = np.asarray(domain.magnitude(beta_mag, "beta magnitude"))
    if n_phases is not None:
        n_phases = domain.integer(n_phases, "n_phases", 2)
        domain.size(n_phases * beta_mag.size, "the phase average")
        k = np.arange(n_phases)
        keys = amplitude * np.exp(2j * np.pi * k / n_phases)
        p = np.mean(np.exp(-0.5 * np.abs(np.subtract.outer(keys, beta_mag)) ** 2), axis=0)
    else:
        p = _exp(-0.5 * (amplitude - beta_mag) ** 2) * bessel_i0_scaled(amplitude * beta_mag)
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class AttackOptimum:
    beta_star: float
    p_star: float


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximum of a unimodal ``f`` on [lo, hi], bracketed to 1e-8 by golden section."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-8:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# Full-resolution grid points per point of the coarse attack scan.
_COARSE_STRIDE = 100


def optimal_coherent_attack(amplitude: float) -> AttackOptimum:
    """Best coherent false-key magnitude against a key of given amplitude.

    Finds the best point of a 1e-3 grid over beta in [0, 2 * amplitude + 5],
    then refines its bracket by golden section to 1e-8.  Below amplitude
    sqrt(2) the optimum is the vacuum; above it the optimum moves out to just
    under the key amplitude and the pass probability decays like
    1/(sqrt(2 pi) amplitude).

    The grid is scanned coarse to fine: every ``_COARSE_STRIDE``-th point,
    then the full-resolution points within one stride of the best of those.
    Each value depends only on its own grid point, so the window holds the
    full scan's values, and p(beta) is unimodal, so it holds the full scan's
    best point.  Below sqrt(2) p strictly decreases.  Above it beta = 0 is a
    local minimum, and d/dbeta log p = -beta + a I1(a beta)/I0(a beta) has
    exactly one positive root, since a I1/I0(a beta) is concave in beta.
    Where both ends of the grid underflow to 0 (amplitude above about 38.6)
    the non-zero region around the peak is still about 38 wide, hundreds of
    strides.
    """
    amplitude = domain.magnitude(amplitude, "amplitude")
    step = 1e-3
    # Kept so that the accepted amplitudes (up to about 414) do not move.
    domain.size(12 * ((2.0 * amplitude + 5.0) / step + 2), "the attack scan")

    def p(beta: float) -> float:
        return attack_pass_probability(amplitude, beta)

    grid = np.arange(0.0, 2.0 * amplitude + 5.0 + step, step)
    coarse = attack_pass_probability(amplitude, grid[::_COARSE_STRIDE])
    centre = int(np.argmax(coarse)) * _COARSE_STRIDE
    start = max(centre - _COARSE_STRIDE, 0)
    values = attack_pass_probability(amplitude, grid[start:centre + _COARSE_STRIDE + 1])
    best = start + int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    beta_ref, p_ref = _golden_max(p, float(lo), float(hi))

    candidates = [(0.0, p(0.0)), (float(grid[best]), float(values[best - start])),
                  (beta_ref, p_ref)]
    p_star = max(v for _, v in candidates)
    beta_star = min(b for b, v in candidates if v >= p_star - 1e-15)
    return AttackOptimum(beta_star=beta_star, p_star=p_star)


def forgery_string_probability(p_single: float, length: int) -> float:
    """Chance a forgery passes all positions: p_single ** length."""
    return domain.fraction(p_single, "p_single") ** domain.integer(length, "key length", 1)


def analytic_pass_probability(amplitude: float, length: int, beta: float | None = None,
                              model: DetectorModel = IDEAL) -> float:
    """Key-phase-averaged chance that the key (``beta`` None) or a false key passes all positions.

    The false key is the coherent state of magnitude ``beta`` at every
    position; ``beta = 0`` is the vacuum attack.  A position is silent with
    probability ``exp(-dark - efficiency |alpha - beta|^2 / 2)``, so the key
    passes with ``exp(-length dark)`` and a false key with
    ``(exp(-dark) attack_pass_probability(sqrt(eta) a, sqrt(eta) beta))^length``.
    """
    length = domain.integer(length, "key length", 1)
    domain.size(length, "the key")
    if beta is None:
        return math.exp(-length * model.dark_mean)
    beta = domain.magnitude(beta, "attack magnitude")
    scale = math.sqrt(model.efficiency)
    p_single = attack_pass_probability(scale * amplitude, scale * beta)
    return forgery_string_probability(math.exp(-model.dark_mean) * p_single, length)


# ---------------------------------------------------------------------------
# information bounds on key copies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyReport:
    """Von Neumann entropy (bits) of the single-position key ensemble."""

    bits: float
    eigenvalues: tuple[float, ...]
    method: str

    def __post_init__(self):
        if self.bits < -1e-12:
            raise InvariantError(f"negative entropy {self.bits!r}")
        total = sum(self.eigenvalues)
        if self.eigenvalues and abs(total - 1.0) > 1e-10:
            raise InvariantError(f"eigenvalues sum to {total!r}, expected 1")


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    lam = eigenvalues[eigenvalues > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def holevo_entropy_finite(amplitude: float, n_phases: int) -> EntropyReport:
    """Entropy of the uniform mixture of N phase states of one key position.

    The mixture is diagonalized by discrete Fourier modes; eigenvalue m is
    ``(1/N) sum_k exp(-a^2 (1 - e^{2 pi i k/N})) e^{2 pi i m k/N}``.  This
    bounds what any measurement on one position of one key copy can reveal,
    rising from 0 at a = 0 toward log2 N for large amplitude.
    """
    amplitude = domain.magnitude(amplitude, "amplitude")
    n_phases = domain.integer(n_phases, "n_phases", 2)
    domain.size(n_phases * n_phases, "the phase-state mixture")
    k = np.arange(n_phases)
    weights = np.exp(-(amplitude**2) * (1.0 - np.exp(2j * np.pi * k / n_phases)))
    phases = np.exp(2j * np.pi * np.outer(np.arange(n_phases), k) / n_phases)
    lam_c = phases @ weights / n_phases
    if float(np.max(np.abs(lam_c.imag))) > 1e-9:
        raise InvariantError("eigenvalues acquired an imaginary part")
    lam = lam_c.real
    if np.any(lam < -1e-12):
        raise InvariantError(f"negative eigenvalue {lam.min()!r}")
    lam = np.clip(lam, 0.0, None)
    return EntropyReport(bits=_entropy_bits(lam), eigenvalues=tuple(lam), method="finite")


def holevo_entropy_infinite(amplitude: float) -> EntropyReport:
    """Entropy of the fully phase-randomized position (the N -> infinity limit).

    The randomized state is diagonal in the number basis with Poisson(a^2)
    eigenvalues, so the entropy is the Poisson Shannon entropy in bits,
    ``a^2 log2 e - e^{-a^2} sum_k (a^{2k}/k!) log2(a^{2k}/k!)``; the series is
    truncated once the Poisson tail drops below 1e-14.  It starts from
    exp(-a^2), so a^2 is limited to 708.4, where that stops being a normal double.
    """
    amplitude = domain.magnitude(amplitude, "amplitude",
                                 limit=MAX_COHERENT_AMPLITUDE / math.sqrt(2.0))
    lam = amplitude * amplitude
    if lam == 0.0:
        return EntropyReport(bits=0.0, eigenvalues=(1.0,), method="infinite")
    probs = []
    p = math.exp(-lam)
    total = p
    k = 0
    while 1.0 - total > 1e-14:
        probs.append(p)
        k += 1
        p *= lam / k
        total += p
    probs.append(p)
    arr = np.array(probs)
    return EntropyReport(bits=_entropy_bits(arr), eigenvalues=tuple(arr), method="infinite")


def stirling_entropy_approx(amplitude: float) -> float:
    """Large-amplitude entropy approximation, 0.5 * log2(2 pi e amplitude^2) bits.

    Gaussian (Stirling) approximation to the Poisson entropy; within 5% of
    the exact value once the mean photon number reaches 10.
    """
    amplitude = domain.magnitude(amplitude, "amplitude", positive=True)
    return 0.5 * math.log2(2.0 * math.pi * math.e * amplitude * amplitude)


def entropy_by_diagonalization(amplitude: float, n_phases: int, cutoff: int = 30) -> EntropyReport:
    """Brute-force oracle: build the mixture in a truncated number basis and diagonalize.

    Independent of the analytic eigenvalue route; used to arbitrate it.
    """
    n_phases = domain.integer(n_phases, "n_phases", 2)
    cutoff = domain.integer(cutoff, "cutoff", 1)
    domain.size((n_phases + cutoff + 1) * (cutoff + 1), "the phase-state mixture")
    vecs = [
        coherent_fock(amplitude * np.exp(2j * np.pi * k / n_phases), cutoff).amps
        for k in range(n_phases)
    ]
    rho = sum(np.outer(v, v.conj()) for v in vecs) / n_phases
    lam = np.linalg.eigvalsh(rho)[::-1]
    lam = np.clip(lam.real, 0.0, None)
    lam /= lam.sum()  # remove the (tiny) truncation deficit before comparing
    return EntropyReport(bits=_entropy_bits(lam), eigenvalues=tuple(lam), method="diagonalized")
