"""Assembly of the k-photon Rabi Hamiltonian and its block form.

The model couples a qubit of gap ``alpha`` to a single bosonic mode of
frequency ``omega`` through a k-photon exchange term of strength ``g``:

    H = alpha*sigma_z + omega*a^dag a + sigma_x*(conj(g)*a^k + g*(a^dag)^k)

This package works in the qubit basis that diagonalizes the exchange term
(the sigma_x eigenbasis). In that basis the boson-space blocks conditioned on
the qubit state are

    h_plus  = omega*a^dag a + (conj(g)*a^k + g*(a^dag)^k)
    h_minus = omega*a^dag a - (conj(g)*a^k + g*(a^dag)^k)

and the qubit gap turns into the constant off-diagonal block alpha*I, so
the full 2*dim Hamiltonian reads [[h_plus, alpha*I], [alpha*I, h_minus]].
The two conventions are related by a qubit-only unitary, so spectra and
dynamics are identical. :class:`BlockOperator` holds the block form as
h_plus, h_minus and the scalar alpha, for :mod:`krabi.riccati`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, _k_dim, _number, _require_memory
from .fock import annihilation, number, power_k
from .linalg import _checked_hermitian


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a truncated k-photon Rabi model.

    alpha: qubit gap (real). omega: mode frequency (real, positive).
    g: exchange strength (complex; the phase is physical only up to a
    mode rotation). k: photon number per exchange, k >= 1. dim: boson
    truncation, dim >= 2*k so every sector keeps at least two states.
    """

    alpha: float
    omega: float
    g: complex
    k: int
    dim: int

    def __post_init__(self):
        k, dim = _k_dim(self.k, self.dim)
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha"))
        object.__setattr__(self, "omega", _number(self.omega, "omega", float, "> 0"))
        object.__setattr__(self, "g", _number(self.g, "g", complex))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class BlockOperator:
    """Boson-space blocks of the Rabi Hamiltonian [[h_plus, alpha*I], [alpha*I, h_minus]].

    h_plus and h_minus must pass the Hermiticity check of :mod:`krabi.linalg`,
    the one the eigensolver applies, and alpha must be finite, as in
    :class:`ModelParams`. Treated as an immutable value after construction.
    """

    h_plus: np.ndarray
    h_minus: np.ndarray
    alpha: float

    def __post_init__(self):
        hp = _checked_hermitian(self.h_plus, "h_plus")[0]
        hm = _checked_hermitian(self.h_minus, "h_minus")[0]
        if hp.shape != hm.shape:
            raise ShapeError(f"block dimensions differ: {hp.shape[0]}, {hm.shape[0]}")
        object.__setattr__(self, "h_plus", hp)
        object.__setattr__(self, "h_minus", hm)
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha"))

    @property
    def dim(self) -> int:
        return self.h_plus.shape[0]

    def full_matrix(self) -> np.ndarray:
        """Dense 2*dim matrix [[h_plus, alpha*I], [alpha*I, h_minus]], filled in place."""
        dim = self.dim
        full = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        full[:dim, :dim] = self.h_plus
        full[dim:, dim:] = self.h_minus
        np.fill_diagonal(full[:dim, dim:], self.alpha)
        np.fill_diagonal(full[dim:, :dim], self.alpha)
        return full


def coupling_term(params: ModelParams) -> np.ndarray:
    """k-photon exchange operator conj(g)*a^k + g*(a^dag)^k; the zero matrix at g = 0,
    where a^k itself may overflow (from k = 239 on at dim = 512)."""
    if params.g == 0:
        return np.zeros((params.dim, params.dim), dtype=np.complex128)
    a_k = power_k(annihilation(params.dim), params.k)
    return np.conj(params.g) * a_k + params.g * a_k.conj().T


def _require_blocks_memory(dim: int) -> None:
    """The size guard of :func:`build_blocks` at truncation ``dim``."""
    # N, a, a^k with matrix_power's temporaries, the coupling, h_plus and h_minus:
    # at most 8 dim x dim complex matrices at once.
    _require_memory(8 * 16 * dim**2, f"building the dense blocks at dim = {dim}")


def build_blocks(params: ModelParams) -> BlockOperator:
    """Blocks h_plus, h_minus and the off-diagonal blocks' value alpha."""
    _require_blocks_memory(params.dim)
    n_op = number(params.dim)
    w = coupling_term(params)
    return BlockOperator(h_plus=params.omega * n_op + w, h_minus=params.omega * n_op - w,
                         alpha=params.alpha)


def build_full(params: ModelParams) -> np.ndarray:
    """Full 2*dim Hamiltonian [[h_plus, alpha*I], [alpha*I, h_minus]]."""
    return build_blocks(params).full_matrix()
