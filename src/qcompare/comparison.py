"""Closed-form success probabilities for coherent-state comparison.

"Success" always means the unambiguous outcome: at least one detector click
that certifies the inputs were not all identical.  Silence is inconclusive.

Two families are covered.  The beam-splitter / multiport strategy exploits
the promise that inputs are coherent; its failure probability is a product
of per-mode vacuum probabilities.  The universal strategy assumes nothing
and projects onto the symmetric subspace; its success probability is
``1 - p_symm`` with ``p_symm`` a permanent-type sum over all permutations of
the coherent-state Gram matrix.  The multiport strategy always dominates:
``1 - p_succ`` is the geometric mean of the same permutation terms whose
arithmetic mean is ``p_symm``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import domain
from .errors import InvariantError
from .linear import CoherentRegister, compose, make_beam_splitter, make_phase_shift, output_means

CLAMP_SLACK = 1e-14
FORM_AGREEMENT_TOL = 1e-10
MAX_UNIVERSAL_MODES = 8
# The overlap-product form sums the log Gram matrix over row blocks of at
# most this many entries, so its memory does not grow with N^2.
GRAM_BLOCK_ENTRIES = 1 << 16


def _clamp_probability(value: float) -> float:
    """Round float noise into [0, 1]; anything beyond slack, or NaN, is a logic bug."""
    if not -CLAMP_SLACK <= value <= 1.0 + CLAMP_SLACK:
        raise InvariantError(f"probability {value!r} outside [0, 1] beyond slack")
    return min(1.0, max(0.0, value))


def _log_overlap(a, b):
    """log <a|b> = -(|a|^2 + |b|^2)/2 + conj(a) b, broadcast over amplitude arrays.

    ``_log_overlap(amps[:, None], amps[None, :])`` is the log Gram matrix.
    The builtin ``abs`` keeps Python's complex modulus for scalar inputs;
    numpy's differs from it in the last bit for about a third of inputs.
    """
    return -0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta> = exp(-(|a|^2 + |b|^2)/2 + conj(a) b), phase included."""
    return np.exp(_log_overlap(*domain.amplitudes([alpha, beta]).tolist()))


def p_success_two(alpha: complex, beta: complex) -> float:
    """Probability that the balanced splitter flags |alpha> != |beta>.

    The difference mode carries |(alpha - beta)/sqrt(2)>, so the click
    probability is ``1 - exp(-|alpha - beta|^2 / 2)``.
    """
    a, b = domain.amplitudes([alpha, beta]).tolist()
    d = abs(a - b)
    return _clamp_probability(1.0 - math.exp(-0.5 * d * d))


def p_success_phase(amplitude: float, delta: float) -> float:
    """Phase-only comparison sensitivity, ``1 - exp(-amplitude^2 sin^2(delta/2))``.

    For a fixed target probability the resolvable phase difference scales as
    1/amplitude.
    """
    amplitude = domain.magnitude(amplitude, "amplitude")
    s = math.sin(0.5 * delta)
    return _clamp_probability(1.0 - math.exp(-(amplitude * amplitude) * s * s))


def p_success_conjugate(alpha: complex, beta: complex) -> float:
    """Probability that a click in the sum mode flags alpha != -beta."""
    return p_success_two(alpha, -complex(beta))


def unbalanced_test(alpha: complex, beta: complex, transmittance: float,
                    input_phase: float = 0.0) -> tuple[float, float]:
    """Output photon means of the unbalanced splitter with an input phase shifter.

    Returns ``(|sqrt(T) e^{i phi} alpha + sqrt(R) beta|^2,
    |sqrt(R) e^{i phi} alpha - sqrt(T) beta|^2)``; a click in either output
    certifies the corresponding combination is nonzero.  The two means always
    sum to |alpha|^2 + |beta|^2.
    """
    net = compose(make_beam_splitter(transmittance), make_phase_shift([input_phase, 0.0]))
    m0, m1 = output_means(net, CoherentRegister([alpha, beta]))
    return float(m0), float(m1)


def no_click_probabilities(amplitudes) -> np.ndarray:
    """Vacuum probabilities p_k(0) = exp(-|gamma_k|^2) of every multiport output.

    The balanced multiport is the DFT ``u[k, l] = exp(2 pi i k l / N) / sqrt(N)``
    of ``linear.make_balanced_multiport``, so its outputs
    ``gamma_k = sum_l conj(u[l, k]) a_l`` are ``fft(a) / sqrt(N)``: O(N log N)
    time and O(N) memory, with no N x N matrix built.  It is taken of
    ``a - a_0``, exact inside a tight cluster; ``a_0`` reaches mode 0 alone.
    """
    amps = domain.amplitudes(amplitudes, minimum=2)
    root_n = math.sqrt(amps.size)
    gamma = np.fft.fft(amps - amps[0]) / root_n
    gamma[0] += root_n * amps[0]
    return np.exp(-np.abs(gamma) ** 2)


def _log_gram_sum(amps: np.ndarray) -> complex:
    """sum_{j,l} log <a_j|a_l>, summed over row blocks of ``GRAM_BLOCK_ENTRIES``."""
    rows = max(1, GRAM_BLOCK_ENTRIES // amps.size)
    return sum(complex(np.sum(_log_overlap(amps[start:start + rows, None], amps[None, :])))
               for start in range(0, amps.size, rows))


def _success_forms(amps: np.ndarray, p_no_click: np.ndarray) -> tuple[float, float, float]:
    """The three forms of ``multiport_success_forms`` given the outputs' vacuum probabilities."""
    n = amps.size

    # Every form is unchanged by a common shift, so each is taken of d = a - a_0:
    # exact inside a tight cluster, where raw log overlaps of size |a|^2 cancel.
    # sum_{j,l} |a_j - a_l|^2 / (2N) = sum_j |d_j - mean(d)|^2.
    d = amps - amps[0]
    pairwise = 1.0 - math.exp(-float(np.sum(np.abs(d - np.mean(d)) ** 2)))

    per_mode = 1.0 - float(np.prod(p_no_click[1:]))

    # The product of N^2 overlaps underflows long before its N-th root does,
    # so the root is taken of the summed log overlaps.  Their imaginary parts
    # cancel in pairs; rounding leaves at most a few ulps of sum |d_j| |d_l|.
    log_prod = _log_gram_sum(d)
    if abs(log_prod.imag) > 1e-12 * max(1.0, float(np.sum(np.abs(d))) ** 2):
        raise InvariantError(f"overlap product has imaginary residue {log_prod.imag!r}")
    # The log sum is -N sum_j |d_j - mean(d)|^2 <= 0; rounding may lift it
    # a few ulps above zero.
    overlap_product = 1.0 - math.exp(min(0.0, log_prod.real / n))

    return pairwise, per_mode, overlap_product


def multiport_success_forms(amplitudes) -> tuple[float, float, float]:
    """The multiport success probability by three independent routes.

    pairwise:        1 - exp(-(1/2N) sum_{j,l} |a_j - a_l|^2), as a centred O(N) sum
    per-mode:        1 - prod_{k=1..N-1} p_k(0), with p_k(0) from the FFT outputs
    overlap product: 1 - (prod_{j,l} <a_j|a_l>)^{1/N}, summed in log space by row blocks

    All three are returned unclamped so tests can compare them directly.
    """
    amps = domain.amplitudes(amplitudes, minimum=2)
    return _success_forms(amps, no_click_probabilities(amps))


def _agreed(forms: tuple[float, float, float]) -> float:
    """The clamped pairwise form, once all three forms agree to ``FORM_AGREEMENT_TOL``."""
    spread = max(forms) - min(forms)
    if not spread <= FORM_AGREEMENT_TOL:
        raise InvariantError(f"success-probability forms disagree by {spread:.3e} "
                             f"> {FORM_AGREEMENT_TOL:.0e}")
    return _clamp_probability(forms[0])


def p_success_multiport(amplitudes) -> float:
    """Probability that the balanced multiport flags N coherent states as unequal.

    Evaluates all three equivalent forms, checks they agree (see ``_agreed``)
    and returns the pairwise-difference form.
    """
    return _agreed(multiport_success_forms(amplitudes))


def p_symm(amplitudes) -> float:
    """Probability that the coherent product lies in the symmetric subspace.

    Explicit sum of Gram-matrix products over all N! permutations, exact at
    desk scale; guarded at N <= 8 against factorial blowup.  A common shift
    only adds phases to the overlaps that cancel in every product, so the sum
    is taken of ``a - a_0``.
    """
    amps = domain.amplitudes(amplitudes, minimum=2)
    n = domain.integer(amps.size, "states in the permutation sum", 2, MAX_UNIVERSAL_MODES)
    d = amps - amps[0]
    g = np.exp(_log_overlap(d[:, None], d[None, :])).tolist()
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for j, pj in enumerate(perm):
            term *= g[j][pj]
        total += term
    total /= math.factorial(n)
    if abs(total.imag) > 1e-12:
        raise InvariantError(f"p_symm has imaginary residue {total.imag!r}")
    return _clamp_probability(total.real)


def p_success_universal(amplitudes) -> float:
    """Success probability of the input-agnostic symmetry test, 1 - p_symm.

    For two states this is (1 - |<a|b>|^2)/2 and never exceeds 1/2.
    """
    return _clamp_probability(1.0 - p_symm(amplitudes))


@dataclass(frozen=True)
class AmgmReport:
    """Both sides of the failure-probability inequality 1 - p_succ <= p_symm."""

    lhs: float
    rhs: float
    holds: bool


def _amgm(p_succ: float, p_sym: float) -> AmgmReport:
    lhs = 1.0 - p_succ
    return AmgmReport(lhs=lhs, rhs=p_sym, holds=lhs <= p_sym + 1e-12)


def verify_amgm_inequality(amplitudes) -> AmgmReport:
    """Check that the multiport strategy fails no more often than the universal one.

    ``1 - p_success_multiport`` is the geometric mean of the N! permutation
    terms whose arithmetic mean is ``p_symm``, so lhs <= rhs always, with
    equality exactly when all amplitudes coincide.
    """
    return _amgm(p_success_multiport(amplitudes), p_symm(amplitudes))


@dataclass(frozen=True)
class ComparisonReport:
    """Both strategies' success probabilities, the three multiport forms
    (pairwise, per_mode, overlap_product), per-mode vacuum probabilities and
    the dominance check; the universal fields are ``None`` above
    ``MAX_UNIVERSAL_MODES`` states."""

    p_succ_coherent: float
    p_succ_universal: float | None
    p_no_click: tuple[float, ...]
    forms: tuple[float, float, float]
    amgm: AmgmReport | None

    def __post_init__(self):
        if (self.p_succ_universal is not None
                and self.p_succ_coherent < self.p_succ_universal - 1e-12):
            raise InvariantError(
                "coherent-strategy success fell below the universal baseline"
            )


def compare_report(amplitudes) -> ComparisonReport:
    """Full comparison report for a tuple of coherent amplitudes.

    Propagates the amplitudes through the multiport once, by FFT (no N x N
    matrix), and runs the permutation sum at most once.
    """
    amps = domain.amplitudes(amplitudes, minimum=2)
    p_no_click = no_click_probabilities(amps)
    forms = _success_forms(amps, p_no_click)
    p_succ = _agreed(forms)
    p_universal = amgm = None
    if amps.size <= MAX_UNIVERSAL_MODES:
        p_sym = p_symm(amps)
        p_universal = _clamp_probability(1.0 - p_sym)
        amgm = _amgm(p_succ, p_sym)
    return ComparisonReport(
        p_succ_coherent=p_succ,
        p_succ_universal=p_universal,
        p_no_click=tuple(float(p) for p in p_no_click),
        forms=forms,
        amgm=amgm,
    )
