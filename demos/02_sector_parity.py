"""Sector decomposition and the generalized parity operator.

Shows how the Fock basis splits into k interleaved sectors, that the
sector projectors resolve the identity, that the generalized parity's
closed form (-1)^(p // k) is the paper's construction (each sector's signs
(-1)^n placed on its Fock indices), and that the bosonic and two-photon
parities, built by the same kernel (-1)^(p // j) at j = 1 and j = 2, are
the papers' formulas (-1)^n and (-1)^(n(n-1)/2).
"""

import numpy as np

from krabi import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs


def sector_members(k, dim):
    """Fock indices p = k*n + l - 1 of each sector l = 1..k, ascending in the level n."""
    return [np.arange(l - 1, dim, k) for l in range(1, k + 1)]


k, dim = 3, 12
members = sector_members(k, dim)

print(f"k = {k}, dim = {dim}")
for l, m in enumerate(members, 1):
    print(f"  sector l={l}: Fock indices {m.tolist()}")

total = np.zeros(dim, dtype=np.int64)
for m in members:
    total[m] += 1  # the 0/1 diagonal of the projector onto the sector
print("projector diagonals sum to:", total.tolist(), "(resolution of identity)")

print("\ngeneralized parity signs by Fock index:")
for kk in (1, 2, 3):
    print(f"  k={kk}: {generalized_parity_signs(kk, dim).tolist()}")

print("\nthe per-sector construction, each sector's (-1)^n on its members:")
for kk in (1, 2, 3):
    assembled = np.zeros(dim, dtype=np.int64)
    for m in sector_members(kk, dim):
        assembled[m] = (-1) ** np.arange(m.size)
    print(f"  k={kk} equals generalized_parity_signs:",
          np.array_equal(assembled, generalized_parity_signs(kk, dim)))

print("\nthe papers' formulas, in Python integers, against the vectors:")
for name, formula, signs in (
    ("(-1)^n", lambda n: (-1) ** n, bosonic_parity_signs(dim)),
    ("(-1)^(n(n-1)/2)", lambda n: (-1) ** (n * (n - 1) // 2), two_photon_parity_signs(dim)),
):
    expected = [formula(n) for n in range(dim)]
    print(f"  {name:>16}: {expected}")
    print(f"  {'vector':>16}: {signs.tolist()}  equal: {signs.tolist() == expected}")
