"""Truncated bosonic ladder operators.

All operators act on the span of the first ``dim`` Fock states
|0>, ..., |dim-1> and are the top-left ``dim x dim`` corner of their
infinite-dimensional matrices. Lowering never leaves the kept subspace,
so products of truncated annihilation operators are exact; it is the
raising direction that feels the cutoff, which surfaces only in the
top-level entry of the commutator [a, a^dag].
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, _dim, _k
from .linalg import as_square_complex


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator ``a`` with <n-1|a|n> = sqrt(n)."""
    dim = _dim(dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def creation(dim: int) -> np.ndarray:
    """Creation operator ``a^dag``, the adjoint of :func:`annihilation`."""
    return np.ascontiguousarray(annihilation(dim).conj().T)


def number(dim: int) -> np.ndarray:
    """Number operator ``a^dag a``, diagonal with entries 0 .. dim-1."""
    dim = _dim(dim)
    return np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)


def power_k(op, k: int) -> np.ndarray:
    """k-fold matrix product ``op^k`` of a square operator.

    Requires k >= 1 (zero-photon coupling is not a meaningful model and is
    rejected) and dim >= k + 1 so that op^k can act nontrivially.
    """
    k = _k(k)
    op = as_square_complex(op, "op")
    if op.shape[0] < k + 1:
        raise ShapeError(f"dim must be at least k + 1 = {k + 1}, got {op.shape[0]}")
    return np.linalg.matrix_power(op, k)
