"""Sector decomposition of the truncated Fock space and parity operators.

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

The operators restricted to one sector have one home, :mod:`krabi._sectors`,
which builds them from the amplitudes of :mod:`krabi.model`. Its sector
tridiagonals are checked entrywise against :meth:`SectorDecomposition.compress`
of the dense blocks in the test suite. The decomposition is the tests' oracle, there and for
the closed form: its ``members`` filled with :func:`partial_parity_signs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _dim, _integer, _k_dim


def _sector_label(l, k: int) -> int:
    l = _integer(l, "sector label l")
    if not 1 <= l <= k:
        raise ValueError(f"sector label l must satisfy 1 <= l <= {k}, got {l}")
    return l


@dataclass(frozen=True)
class SectorDecomposition:
    """Split of the first ``dim`` Fock states into k interleaved sectors.

    ``members[l-1]`` lists the Fock indices of sector l in ascending order
    (these are k*n + l - 1 for n = 0, 1, ...). :meth:`sector_of` maps a
    Fock index p back to its (level, sector) pair (n, l). The map is a
    bijection onto all pairs with k*n + l - 1 < dim, so the sectors resolve
    the identity and are mutually orthogonal.
    """

    k: int
    dim: int
    members: tuple

    @property
    def sector_dims(self) -> tuple:
        """Number of kept basis states per sector, indexed by l - 1."""
        return tuple(int(m.size) for m in self.members)

    def sector_of(self, p: int) -> tuple[int, int]:
        """Level and sector (n, l) of Fock index p: (p // k, p % k + 1)."""
        p = _integer(p, "Fock index p")
        if not 0 <= p < self.dim:
            raise ValueError(f"Fock index p must satisfy 0 <= p < {self.dim}, got {p}")
        return p // self.k, p % self.k + 1

    def projector_diagonal(self, l: int) -> np.ndarray:
        """Integer 0/1 diagonal of the orthogonal projector onto sector l."""
        l = _sector_label(l, self.k)
        diag = np.zeros(self.dim, dtype=np.int64)
        diag[self.members[l - 1]] = 1
        return diag

    def compress(self, op: np.ndarray, l: int, m: int) -> np.ndarray:
        """Block of ``op`` mapping sector m into sector l, on sector indices."""
        l = _sector_label(l, self.k)
        m = _sector_label(m, self.k)
        return np.ascontiguousarray(op[np.ix_(self.members[l - 1], self.members[m - 1])])


def decompose(k: int, dim: int) -> SectorDecomposition:
    """Enumerate the k sectors of the first ``dim`` Fock states."""
    k, dim = _k_dim(k, dim)
    members = tuple(np.arange(l - 1, dim, k, dtype=np.int64) for l in range(1, k + 1))
    return SectorDecomposition(k=k, dim=dim, members=members)


def partial_parity_signs(sd: SectorDecomposition, l: int) -> np.ndarray:
    """Integer signs (-1)^n on the levels of sector l."""
    l = _sector_label(l, sd.k)
    size = sd.sector_dims[l - 1]
    signs = np.ones(size, dtype=np.int64)
    signs[1::2] = -1
    return signs


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
