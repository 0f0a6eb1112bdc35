"""Lossless linear-optical networks acting on multimode coherent states.

A network is stored as the unitary matrix ``u`` that mixes the mode creation
operators.  A product of coherent states stays a coherent product under such
a network, and the output amplitude of mode ``k`` is

    gamma_k = sum_l conj(u[l, k]) * alpha_l

This single convention is used everywhere: the constructors here, the
Fock-space oracle and the protocol modules all agree on it.  ``compose`` is
defined so that ``apply_network(compose(outer, inner), x)`` equals applying
``inner`` first and ``outer`` second.

An input phase shifter is obtained by composition, e.g.
``compose(make_beam_splitter(0.5), make_phase_shift([theta, 0.0]))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import domain

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class CoherentRegister:
    """Ordered mode amplitudes of an N-mode coherent product state (any finite values:
    a network's outputs may exceed ``domain.MAX_AMPLITUDE``)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = domain.amplitudes(self.amplitudes, limit=np.inf)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def __len__(self) -> int:
        return self.amplitudes.size

    @property
    def n_modes(self) -> int:
        return self.amplitudes.size

    @property
    def mean_photon_number(self) -> float:
        """Total mean photon number; conserved by any network."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def mode_means(self) -> np.ndarray:
        """Per-mode mean photon numbers |alpha_j|^2."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class LinearNetwork:
    """N-mode network described by its unitary mode-mixing matrix.

    Construction checks unitarity to ``UNITARITY_TOL`` and rejects anything
    worse; all downstream analytics assume exact unitarity.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("network matrix must be square and non-empty")
        if not np.all(np.isfinite(mat)):
            raise ValueError("network matrix must be finite")
        defect = float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))
        if defect >= UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary: defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

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
    return LinearNetwork(np.array([[t, r], [r, -t]]), label=f"BS(T={transmittance:g})")


def make_balanced_multiport(n_modes: int) -> LinearNetwork:
    """Balanced N-port with entries ``u[k, l] = exp(2 pi i k l / N) / sqrt(N)``.

    This is the discrete Fourier transform matrix; it distributes a photon
    entering any port with equal probability over all outputs, and it is the
    N-mode generalization of the balanced beam splitter.
    """
    n_modes = domain.integer(n_modes, "multiport modes", 2)
    domain.size(n_modes * n_modes, "the multiport matrix")
    k = np.arange(n_modes)
    mat = np.exp(2j * np.pi * np.outer(k, k) / n_modes) / np.sqrt(n_modes)
    return LinearNetwork(mat, label=f"DFT({n_modes})")


def make_phase_shift(phases) -> LinearNetwork:
    """Per-mode phase shifters: output amplitude j is ``exp(i phases[j])`` times input j.

    Stored as ``diag(exp(-i phases))`` so that the package-wide application
    convention produces the ``+i phases`` rotation on amplitudes.
    """
    # LinearNetwork rejects what is not a non-empty 1-D sequence (np.diag of it is not square).
    mat = np.diag(np.exp(-1j * np.atleast_1d(np.asarray(phases, dtype=float))))
    return LinearNetwork(mat, label="phase")


def compose(outer: LinearNetwork, inner: LinearNetwork) -> LinearNetwork:
    """Network equivalent to applying ``inner`` first, then ``outer``."""
    if outer.n_modes != inner.n_modes:
        raise ValueError(
            f"cannot compose networks of {outer.n_modes} and {inner.n_modes} modes"
        )
    label = f"{outer.label or 'net'}*{inner.label or 'net'}"
    return LinearNetwork(inner.matrix @ outer.matrix, label=label)


def apply_network(network: LinearNetwork, register: CoherentRegister) -> CoherentRegister:
    """Propagate a coherent register through a network.

    Returns the register of output amplitudes ``gamma_k = sum_l conj(u[l, k]) alpha_l``.
    Total mean photon number is conserved because the matrix is unitary.
    """
    if len(register) != network.n_modes:
        raise ValueError(
            f"register has {len(register)} modes but network has {network.n_modes}"
        )
    gamma = network.matrix.conj().T @ register.amplitudes
    return CoherentRegister(gamma)


def output_means(network: LinearNetwork, register: CoherentRegister) -> np.ndarray:
    """Per-mode output mean photon numbers |gamma_k|^2."""
    return apply_network(network, register).mode_means()
