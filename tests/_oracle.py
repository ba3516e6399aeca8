"""The tests' oracle for the Fock ↔ sector layout, in index form.

For photon number k the Fock basis splits into k interleaved sectors: the
state with Fock index p belongs to sector l = (p mod k) + 1 at sector level
n = p // k, so that p = k*n + l - 1 with 1 <= l <= k. The paper builds the
generalized parity from per-sector partial parities, the signs (-1)^n on
the levels of each sector; :func:`partial_parity_signs` placed on each
sector's ``members`` is that construction, which the tests hold krabi's
closed form (-1)^(p // k) to.

krabi keeps the layout in array form (:func:`krabi._sectors.sector_axes`).
This module keeps the index form independently of it: it imports numpy and
the package's integer rules, and nothing from :mod:`krabi.parity` or
:mod:`krabi._sectors`. :meth:`SectorDecomposition.compress` of the dense
blocks is what the sector band (d, e) is checked against entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from krabi.errors import _integer, _k_dim


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
