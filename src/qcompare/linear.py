"""Lossless linear-optical networks acting on multimode coherent states.

A network is stored as the unitary matrix ``u`` that mixes the mode creation
operators.  A product of coherent states stays a coherent product under such
a network, and the output amplitude of mode ``k`` is

    gamma_k = sum_l conj(u[l, k]) * alpha_l

This single convention is used everywhere: the constructors here, the
Fock-space oracle and the protocol modules all agree on it; the latter apply
the balanced multiport by ``multiport_outputs``.  ``compose`` is defined so that ``apply_network(compose(outer, inner), x)`` equals applying
``inner`` first and ``outer`` second.

An input phase shifter is obtained by composition, e.g.
``compose(make_beam_splitter(0.5), make_phase_shift([theta, 0.0]))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domain

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class CoherentRegister:
    """Ordered mode amplitudes of an N-mode coherent product state (any finite values:
    a network's outputs may exceed ``domain.MAX_AMPLITUDE``).  The caller's array is
    copied, so no later write reaches the validated amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = domain.amplitudes(self.amplitudes, limit=np.inf).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.size

    @property
    def mean_photon_number(self) -> float:
        """Total mean photon number; conserved by any network."""
        return float(np.sum(self.mode_means()))

    def mode_means(self) -> np.ndarray:
        """Per-mode mean photon numbers |alpha_j|^2 (``inf`` where the square overflows)."""
        with np.errstate(over="ignore"):
            return np.abs(self.amplitudes) ** 2


def _gram_defect(mat: np.ndarray) -> float:
    """max |U U^dagger - I|, by the O(N^3) Gram product.

    Each row block of ``U U^dagger`` is taken as its conjugate
    ``conj(U[block]) U^T``: the same products up to exact sign flips, and
    ``conj(G) - I = conj(G - I)`` has the same moduli.  So neither ``conj(U)``,
    the identity nor the full product is held; a block holds at most
    ``domain.BLOCK_ENTRIES`` entries.
    """
    n = mat.shape[0]
    rows = max(1, domain.BLOCK_ENTRIES // n)
    defect = 0.0
    for start in range(0, n, rows):
        block = np.conj(mat[start:start + rows]) @ mat.T
        block.flat[start::n + 1] -= 1.0  # entries (i, start + i)
        defect = np.maximum(defect, np.abs(block).max())  # a NaN block wins
    return float(defect)


def _fourier_certificate(mat: np.ndarray) -> float:
    """An upper bound on ``_gram_defect(mat)`` from O(N^2 log N) FFTs.

    ``P = fft(U, axis=1) / sqrt(N)`` is ``U F^dagger`` for the unitary DFT F
    of ``make_balanced_multiport``, so ``U U^dagger = P P^dagger``.  With
    ``E = P - I`` every entry of ``U U^dagger - I = E + E^dagger + E E^dagger``
    is at most ``2 eta + eta^2`` for any ``eta >= ||E||_F``.  ``||E||_F^2`` is
    summed over row blocks of at most ``domain.BLOCK_ENTRIES``, and so is
    ``||U||_F^2``, so no second N x N array is held.  The computed P differs
    from the exact one by at most a few ``eps log2(N) ||U||_F``; ``eta`` adds
    a hundred times that.  The bound is tight only when U is close to the DFT,
    and is then far below ``UNITARITY_TOL``.  Any other matrix already has
    ``|E[0, 0]| > UNITARITY_TOL`` in most cases, read off in O(N), and gets
    ``inf`` without the FFT.  An overflow gives ``inf`` or NaN, never a small
    bound.
    """
    n = mat.shape[0]
    if not abs(mat[0].sum() / math.sqrt(n) - 1.0) <= UNITARITY_TOL:
        return math.inf
    rows = max(1, domain.BLOCK_ENTRIES // n)
    squared = norm_squared = 0.0
    for start in range(0, n, rows):
        rows_u = mat[start:start + rows]
        norm_squared += float(np.vdot(rows_u, rows_u).real)
        block = np.fft.fft(rows_u, axis=1, norm="ortho")
        block.flat[start::n + 1] -= 1.0  # entries (i, start + i)
        squared += float(np.vdot(block, block).real)
    rounding = 100.0 * np.finfo(float).eps * max(1.0, math.log2(n)) * math.sqrt(norm_squared)
    eta = math.sqrt(squared) + rounding
    return 2.0 * eta + eta * eta


@dataclass(frozen=True)
class LinearNetwork:
    """N-mode network described by its unitary mode-mixing matrix.

    Construction checks unitarity to ``UNITARITY_TOL`` and rejects anything
    worse; all downstream analytics assume exact unitarity.  A matrix close to
    the DFT is accepted by ``_fourier_certificate``, an upper bound on the
    defect, without the O(N^3) Gram product; any other is judged by
    ``_gram_defect``, which the error message reports.  Finiteness is checked
    only when the certificate fails, as a non-finite matrix always makes it
    fail.  A finite matrix whose products overflow gets a non-finite defect,
    rejected without a warning.  The caller's array is always copied, so no
    later write reaches the validated matrix; the module's constructors hand
    their fresh matrix over by ``_adopt``.
    """

    matrix: np.ndarray

    def __post_init__(self, copy: bool = True):
        mat = np.array(self.matrix, dtype=complex, order="C") if copy else self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("network matrix must be square and non-empty")
        with np.errstate(over="ignore", invalid="ignore"):
            if not _fourier_certificate(mat) < UNITARITY_TOL:
                if not np.all(np.isfinite(mat)):
                    raise ValueError("network matrix must be finite")
                defect = _gram_defect(mat)
                if not defect < UNITARITY_TOL:
                    raise ValueError(
                        f"matrix is not unitary: defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}"
                    )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _adopt(cls, mat: np.ndarray) -> LinearNetwork:
        """A network validated on ``mat`` itself, a fresh array that no caller holds."""
        network = object.__new__(cls)
        object.__setattr__(network, "matrix", mat)
        network.__post_init__(copy=False)
        return network

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


def make_beam_splitter(transmittance: float) -> LinearNetwork:
    """Two-mode beam splitter with transmittance ``T`` and reflectance ``R = 1 - T``.

    The matrix rows are ``(sqrt(T), sqrt(R))`` and ``(sqrt(R), -sqrt(T))``.
    With ``T = 1/2`` this is the balanced splitter sending ``(alpha, beta)``
    to ``((alpha + beta)/sqrt(2), (alpha - beta)/sqrt(2))``.
    """
    transmittance = domain.fraction(transmittance, "transmittance")
    t = np.sqrt(transmittance)
    r = np.sqrt(1.0 - transmittance)
    return LinearNetwork(np.array([[t, r], [r, -t]]))


def make_balanced_multiport(n_modes: int) -> LinearNetwork:
    """Balanced N-port with entries ``u[k, l] = exp(2 pi i k l / N) / sqrt(N)``.

    This is the discrete Fourier transform matrix; it distributes a photon
    entering any port with equal probability over all outputs, and it is the
    N-mode generalization of the balanced beam splitter.
    """
    n_modes = domain.integer(n_modes, "multiport modes", 2)
    domain.size(n_modes * n_modes, "the multiport matrix")
    k = np.arange(n_modes)
    # u[k, l] depends on k l mod N only: gather it from the N scaled roots of
    # unity, each evaluated once at an argument below 2 pi.  The index is
    # built one row block at a time, so the matrix is the only N x N array.
    roots = np.exp(2j * np.pi * k / n_modes) / math.sqrt(n_modes)
    mat = np.empty((n_modes, n_modes), dtype=complex)
    rows = max(1, domain.BLOCK_ENTRIES // n_modes)
    for start in range(0, n_modes, rows):
        index = np.outer(k[start:start + rows], k)
        index %= n_modes
        # The index is in range; mode="raise" would gather into a buffer first.
        np.take(roots, index, out=mat[start:start + rows], mode="clip")
    return LinearNetwork._adopt(mat)


def multiport_outputs(amps) -> np.ndarray:
    """Outputs gamma of the balanced multiport fed the amplitudes on the last axis.

    Each row equals ``apply_network(make_balanced_multiport(N), ...)``: the
    DFT's outputs ``gamma_k = sum_l conj(u[l, k]) a_l`` are ``fft(a) / sqrt(N)``,
    with no N x N matrix built.  The FFT is taken of ``a - a_0``, exact inside
    a tight cluster (equal inputs give exactly zero in modes 1..N-1); ``a_0``
    reaches mode 0 alone, as ``sqrt(N) a_0``.  ``amps`` may be any non-empty
    array-like of finite amplitudes with at least one axis.
    """
    try:
        amps = np.asarray(amps, dtype=complex)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("multiport inputs must be finite, "
                         "got an integer beyond the float range") from None
    if amps.ndim == 0 or amps.size == 0:
        raise ValueError(f"multiport inputs must be a non-empty array, got shape {amps.shape}")
    finite = np.isfinite(amps)
    if not finite.all():
        raise ValueError(f"multiport inputs must be finite, got {complex(amps[~finite][0])}")
    root_n = math.sqrt(amps.shape[-1])
    gamma = np.fft.fft(amps - amps[..., :1]) / root_n
    gamma[..., 0] += root_n * amps[..., 0]
    return gamma


def make_phase_shift(phases) -> LinearNetwork:
    """Per-mode phase shifters: output amplitude j is ``exp(i phases[j])`` times input j.

    Stored as ``diag(exp(-i phases))`` so that the package-wide application
    convention produces the ``+i phases`` rotation on amplitudes.
    """
    # LinearNetwork rejects what is not a non-empty 1-D sequence (np.diag of it is not square).
    phases = [domain.real(phase, "phase") for phase in np.atleast_1d(phases).tolist()]
    mat = np.diag(np.exp(-1j * np.array(phases, dtype=float)))
    return LinearNetwork._adopt(mat)


def compose(outer: LinearNetwork, inner: LinearNetwork) -> LinearNetwork:
    """Network equivalent to applying ``inner`` first, then ``outer``."""
    if outer.n_modes != inner.n_modes:
        raise ValueError(
            f"cannot compose networks of {outer.n_modes} and {inner.n_modes} modes"
        )
    return LinearNetwork._adopt(inner.matrix @ outer.matrix)


def apply_network(network: LinearNetwork, register: CoherentRegister) -> CoherentRegister:
    """Propagate a coherent register through a network.

    Returns the register of output amplitudes ``gamma_k = sum_l conj(u[l, k]) alpha_l``.
    Total mean photon number is conserved because the matrix is unitary.
    """
    if register.n_modes != network.n_modes:
        raise ValueError(
            f"register has {register.n_modes} modes but network has {network.n_modes}"
        )
    # conj(U)^T alpha as conj(conj(alpha) U): the same products up to exact
    # sign flips, with no conjugate copy of U.  The outer conj is 0 - imag, so
    # an exactly zero imaginary part stays the +0.0 the direct product gives.
    gamma = np.conj(register.amplitudes) @ network.matrix
    imag = gamma.imag
    np.subtract(0.0, imag, imag)
    return CoherentRegister(gamma)

