"""Assembly of the k-photon Rabi Hamiltonian and its block form.

The model couples a qubit of gap ``alpha`` to a single bosonic mode of
frequency ``omega`` through a k-photon exchange term of strength ``g``:

    H = alpha*sigma_z + omega*a^dag a + sigma_x*(conj(g)*a^k + g*(a^dag)^k)

This package works in the qubit basis that diagonalizes the coupling (the
sigma_x eigenbasis). In that basis the boson-space blocks conditioned on
the qubit state are

    h_plus  = omega*a^dag a + (conj(g)*a^k + g*(a^dag)^k)
    h_minus = omega*a^dag a - (conj(g)*a^k + g*(a^dag)^k)

and the qubit gap turns into the constant off-diagonal block alpha*I, so
the full 2*dim Hamiltonian reads [[h_plus, alpha*I], [alpha*I, h_minus]].
The two conventions are related by a qubit-only unitary, so spectra and
dynamics are identical; the block form is what the Riccati machinery in
:mod:`krabi.riccati` consumes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, ShapeError, _k_dim
from .fock import annihilation, number, power_k
from .linalg import HERMITICITY_RTOL, _norm, as_square_complex, hermiticity_defect


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a truncated k-photon Rabi model.

    alpha: qubit gap (real). omega: mode frequency (real, positive).
    g: coupling strength (complex; the phase is physical only up to a
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
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "g", complex(self.g))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "dim", dim)
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if not (math.isfinite(self.g.real) and math.isfinite(self.g.imag)):
            raise ValueError(f"g must be finite, got {self.g}")


@dataclass(frozen=True)
class BlockOperator:
    """Boson-space blocks of a qubit-boson Hamiltonian.

    Represents the 2x2 block matrix [[h_plus, coupling],
    [coupling^dag, h_minus]] acting on two stacked copies of the truncated
    boson space. h_plus and h_minus must be Hermitian within tolerance;
    for the Rabi model the coupling block is exactly alpha*I. Treated as
    an immutable value after construction.
    """

    h_plus: np.ndarray
    h_minus: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        hp = as_square_complex(self.h_plus, "h_plus")
        hm = as_square_complex(self.h_minus, "h_minus")
        v = as_square_complex(self.coupling, "coupling")
        if not (hp.shape == hm.shape == v.shape):
            raise ShapeError(
                f"block dimensions differ: {hp.shape[0]}, {hm.shape[0]}, {v.shape[0]}"
            )
        for name, block in (("h_plus", hp), ("h_minus", hm)):
            defect = hermiticity_defect(block)
            if defect > 0 and defect > HERMITICITY_RTOL * _norm(block):
                raise HermiticityError(f"{name} is not Hermitian: defect {defect:.3e}")
        object.__setattr__(self, "h_plus", hp)
        object.__setattr__(self, "h_minus", hm)
        object.__setattr__(self, "coupling", v)

    @property
    def dim(self) -> int:
        return self.h_plus.shape[0]

    def full_matrix(self) -> np.ndarray:
        """Dense 2*dim matrix [[h_plus, v], [v^dag, h_minus]]."""
        return np.block([
            [self.h_plus, self.coupling],
            [self.coupling.conj().T, self.h_minus],
        ])


def coupling_term(params: ModelParams) -> np.ndarray:
    """k-photon exchange operator conj(g)*a^k + g*(a^dag)^k."""
    a_k = power_k(annihilation(params.dim), params.k)
    return np.conj(params.g) * a_k + params.g * a_k.conj().T


def build_blocks(params: ModelParams) -> BlockOperator:
    """Blocks h_plus, h_minus and the constant coupling alpha*I."""
    n_op = number(params.dim)
    w = coupling_term(params)
    h_plus = params.omega * n_op + w
    h_minus = params.omega * n_op - w
    v = params.alpha * np.eye(params.dim, dtype=np.complex128)
    return BlockOperator(h_plus=h_plus, h_minus=h_minus, coupling=v)


def build_full(params: ModelParams) -> np.ndarray:
    """Full 2*dim Hamiltonian [[h_plus, alpha*I], [alpha*I, h_minus]]."""
    return build_blocks(params).full_matrix()
