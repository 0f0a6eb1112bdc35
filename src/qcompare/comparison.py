"""Closed-form success probabilities for coherent-state comparison.

"Success" always means the unambiguous outcome: at least one detector click
that certifies the inputs were not all identical.  Silence is inconclusive.

Two families are covered.  The beam-splitter / multiport strategy exploits
the promise that inputs are coherent; its failure probability is a product
of per-mode vacuum probabilities, read off the outputs of
``linear.multiport_outputs``.  The universal strategy assumes nothing
and projects onto the symmetric subspace; its success probability is
``1 - p_symm`` with ``p_symm = per(G) / N!``, the mean over all permutations
of products of the coherent-state Gram matrix G, evaluated by Glynn's
formula.  The multiport strategy always dominates: ``1 - p_succ`` is the
geometric mean of the same permutation terms whose arithmetic mean is
``p_symm``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import domain
from .errors import InvariantError
from .linear import (CoherentRegister, compose, make_beam_splitter, make_phase_shift,
                     multiport_outputs, output_means)

CLAMP_SLACK = 1e-14
FORM_AGREEMENT_TOL = 1e-10
MAX_UNIVERSAL_MODES = 8


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
    s = math.sin(0.5 * domain.real(delta, "phase difference"))
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
    m0, m1 = output_means(net, CoherentRegister(domain.amplitudes([alpha, beta])))
    return float(m0), float(m1)


def no_click_probabilities(amplitudes) -> np.ndarray:
    """Vacuum probabilities p_k(0) = exp(-|gamma_k|^2) of every multiport output.

    The outputs gamma come from ``linear.multiport_outputs``, by FFT.
    """
    amps = domain.amplitudes(amplitudes, minimum=2)
    return np.exp(-np.abs(multiport_outputs(amps)) ** 2)


def _log_gram_sum(amps: np.ndarray) -> complex:
    """sum_{j,l} log <a_j|a_l> over row blocks of ``domain.BLOCK_ENTRIES``, in O(N) memory."""
    rows = max(1, domain.BLOCK_ENTRIES // amps.size)
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


@functools.lru_cache(maxsize=None)
def _glynn_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's 2^(N-1) sign vectors d (d_0 = +1) as the columns of an N-row
    table, and each vector's sign product; built once per N."""
    bits = (np.arange(1 << (n - 1)) >> np.arange(n - 1)[:, None]) & 1
    # Complex, so that the product with the complex Gram matrix needs no cast.
    signs = np.ones((n, 1 << (n - 1)), dtype=complex)
    signs[1:] -= 2 * bits
    products = np.multiply.reduce(signs, axis=0)
    signs.setflags(write=False)
    products.setflags(write=False)
    return signs, products


def p_symm(amplitudes) -> float:
    """Probability that the coherent product lies in the symmetric subspace.

    ``per(G) / N!`` for the Gram matrix G, by Glynn's formula
    ``per(G) = 2^-(N-1) sum_d (prod_k d_k) prod_i sum_j G[i, j] d_j`` over the
    sign vectors d with d_0 = +1: O(2^(N-1) N^2) work in place of the
    O(N! N) permutation sum; capped at ``MAX_UNIVERSAL_MODES`` states.  A
    common shift only adds phases to the overlaps that cancel in every
    product, so the sum is taken of ``a - a_0``.
    """
    amps = domain.amplitudes(amplitudes, minimum=2)
    n = domain.integer(amps.size, "states in the permutation sum", 2, MAX_UNIVERSAL_MODES)
    d = amps - amps[0]
    signs, products = _glynn_signs(n)
    g = np.exp(_log_overlap(d[:, None], d[None, :]))
    # Row i of G @ signs holds sum_j G[i, j] d_j for every d; multiplying the
    # rows together (axis 0, the vectorised direction) gives every d's term.
    terms = np.multiply.reduce(g.dot(signs), axis=0)
    # Dividing by 2^(N-1) is exact; N! is divided out once, at the end.
    total = complex(products.dot(terms)) / (1 << (n - 1)) / math.factorial(n)
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

    Propagates the amplitudes through the multiport once, by
    ``linear.multiport_outputs`` (no N x N matrix), and evaluates ``p_symm`` at most once.
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
