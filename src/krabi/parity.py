"""The parity operators of the k-photon Rabi model, as integer sign vectors.

For photon number k the Fock basis splits into k interleaved sectors: the
state with Fock index p belongs to sector l = (p mod k) + 1 at sector level
n = p // k, so that p = k*n + l - 1 with 1 <= l <= k. Both the number
operator and k-step lowering (a^k) preserve each sector, which is what lets
a per-sector sign operator act as a symmetry of the k-photon Rabi blocks:
flipping the sign of every odd sector level anticommutes with a^k and
commutes with a^dag a, hence swaps h_plus and h_minus.

The generalized parity assembled from those per-sector signs is the
diagonal s_p = (-1)^(p // k), Hermitian and squaring to the identity, so it
is held as its integer sign vector s, and every parity here is such a
vector. Where a matrix is needed, as by the public dense Riccati checks of
:mod:`krabi.riccati`, it is ``np.diag(s)``; krabi's own dense solves shift the
blocks' diagonals by +-alpha*s instead. The bosonic parity's signs
(-1)^n and the two-photon parity's signs (-1)^(n(n-1)/2) are the same
family at k = 1 and k = 2, since n(n-1)/2 = n // 2 (mod 2): one kernel,
(-1)^(p // j), builds all three with j = k, 1 or 2.

The sector layout has one home in the package, :mod:`krabi._sectors`, which
also builds the operators restricted to one sector. The test suite keeps the
paper's per-sector construction in index form (``tests/_oracle.py``) and
checks the closed form against it: each sector's signs (-1)^n placed on its
Fock indices.
"""

from __future__ import annotations

import numpy as np

from .errors import _dim, _k_dim


def _floor_signs(j: int, size: int) -> np.ndarray:
    """Integer signs (-1)^(p // j) for p < ``size``, built in place in one int64 buffer."""
    signs = np.arange(size, dtype=np.int64)
    signs //= j
    signs &= 1
    signs *= -2
    signs += 1
    return signs


def generalized_parity_signs(k: int, dim: int) -> np.ndarray:
    """Integer signs (-1)^(p // k) of the generalized parity on ``dim`` Fock states.

    Fock index p = k*n + l - 1 carries the sign (-1)^n of its sector level
    n = p // k: the kernel at j = k.
    """
    k, dim = _k_dim(k, dim)
    return _floor_signs(k, dim)


def bosonic_parity_signs(dim: int) -> np.ndarray:
    """Signs (-1)^n of the bosonic parity operator: the kernel at j = 1."""
    return _floor_signs(1, _dim(dim))


def two_photon_parity_signs(dim: int) -> np.ndarray:
    """Signs (-1)^(n(n-1)/2) of the two-photon parity operator: the kernel at j = 2.

    The phase exp(i*pi*n(n-1)/2) is real for every n because n(n-1)/2 is an
    integer, and n(n-1)/2 = n // 2 (mod 2), so the operator reduces to the
    signs (-1)^(n // 2).
    """
    return _floor_signs(2, _dim(dim))
