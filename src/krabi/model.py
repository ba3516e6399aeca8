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

The only model-specific numbers in the blocks are the k-step amplitudes
amp_p = <p| a^k |p+k> = sqrt((p+1)...(p+k)). :func:`_amplitudes` defines them
once; the dense blocks here and the sector band of :mod:`krabi._sectors` are
both written from it, with no operator product. The ladder operators of
:mod:`krabi.fock` are left to the tests, as the coupling's independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, _k_dim, _number, _require_memory
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


def _amplitudes(params: ModelParams) -> np.ndarray:
    """amp_p = <p| a^k |p+k> = sqrt((p+1)(p+2)...(p+k)) for p < dim - k; zeros at g = 0.

    The one definition of the coupling's amplitudes, for the band of
    :mod:`krabi._sectors` and the dense blocks alike: a product of k square
    roots of consecutive integers, multiplied left to right, never the
    factorials themselves. Entry p links sector level n = p // k of sector
    l = p % k + 1 to level n + 1. An amplitude past the float64 range is
    inf, without a warning; the band's verdict refuses such a model, and
    :func:`build_blocks` raises ShapeError. At k = 256, dim = 512 every
    amplitude from p = 139 on is inf. At g = 0 the coupling g*amp_p is 0 even
    there: zeros, with no product.
    """
    k, dim = params.k, params.dim
    if params.g == 0:
        return np.zeros(dim - k)
    roots = np.sqrt(np.arange(1, dim, dtype=np.float64))  # roots[i] = sqrt(i + 1)
    band = roots[: dim - k].copy()
    with np.errstate(over="ignore"):
        for j in range(1, k):
            band *= roots[j : dim - k + j]
    return band


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
    """k-photon exchange operator conj(g)*a^k + g*(a^dag)^k: conj(g)*amp_p at (p, p+k) and
    g*amp_p at (p+k, p) of a zeroed matrix, exact zeros at g = 0. Where amp_p overflows
    and g is not 0, the entries are not finite, without a warning."""
    k, dim = params.k, params.dim
    amplitudes = _amplitudes(params)
    w = np.zeros((dim, dim), dtype=np.complex128)
    p = np.arange(dim - k)
    # inf*0 is nan where g is real or imaginary; + 0.0 turns a -0.0 part into +0.0.
    with np.errstate(over="ignore", invalid="ignore"):
        w[p, p + k] = np.conj(params.g) * amplitudes + 0.0
        w[p + k, p] = params.g * amplitudes + 0.0
    return w


def _require_blocks_memory(dim: int) -> None:
    """The size guard of :func:`build_blocks` at truncation ``dim``."""
    # The blocks peak at four dim x dim complex matrices: W (h_plus), h_minus and the
    # Hermiticity check's temporaries; a sweep point at four too, the blocks and their one
    # stacked, shifted copy. Eight also hold verify --dump's residual, its temporaries and
    # x, which have no estimate of their own.
    _require_memory(8 * 16 * dim**2, f"building the dense blocks at dim = {dim}")


def build_blocks(params: ModelParams) -> BlockOperator:
    """Blocks h_plus = omega*N + W, h_minus = omega*N - W and the off-diagonal blocks' value
    alpha, with W the :func:`coupling_term`; one ShapeError, no warning, where an entry
    overflows."""
    _require_blocks_memory(params.dim)
    h_plus = coupling_term(params)
    h_minus = 0.0 - h_plus  # not -h_plus: 0.0 - (+0.0) keeps the off-band zeros +0.0
    with np.errstate(over="ignore"):
        diagonal = params.omega * np.arange(params.dim, dtype=np.float64)
    np.fill_diagonal(h_plus, diagonal)
    np.fill_diagonal(h_minus, diagonal)
    return BlockOperator(h_plus=h_plus, h_minus=h_minus, alpha=params.alpha)


def build_full(params: ModelParams) -> np.ndarray:
    """Full 2*dim Hamiltonian [[h_plus, alpha*I], [alpha*I, h_minus]]."""
    return build_blocks(params).full_matrix()
