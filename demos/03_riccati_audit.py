"""Which parity operators solve the Riccati equation, measured.

Scores three candidates per photon number k: the generalized parity, the
bosonic parity and the two-photon parity. Each is the sign vector
(-1)^(p // j), with j = k, 1 and 2, and the rule is that it solves exactly
when j divides k and k/j is odd. So the generalized parity solves for
every k, the bosonic parity exactly the odd k, and the two-photon parity
exactly k with k % 4 == 2: extending it to all even k >= 4 fails already
at k = 4. Residuals, not assertions: each verdict is printed next to the
rule's, and every claim here is the number printed next to it.

The last line derives the parity from H alone. Each choice of dim eigenvectors
of the full matrix whose upper halves U are invertible spans the graph
{(u, X u)} of a Riccati solution X = L U^-1, L the lower halves (Kostrykin,
Makarov & Motovilov, Contemp. Math. 327, 181 (2003)); the Hermitian
involutions among them are counted and compared with diagonal +-1 matrices.
"""

import itertools

import numpy as np

from krabi import (
    ModelParams,
    bosonic_parity_signs,
    build_blocks,
    build_full,
    generalized_parity_signs,
    two_photon_parity_signs,
    verify_involution_solution,
)

print(f"{'k':>2} {'generalized':>20} {'bosonic':>20} {'two-photon':>20}")
for k in range(1, 9):
    dim = 8 * k
    params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=k, dim=dim)
    blocks = build_blocks(params)
    cells = []
    for j, signs in ((k, generalized_parity_signs(k, dim)), (1, bosonic_parity_signs(dim)),
                     (2, two_photon_parity_signs(dim))):
        report = verify_involution_solution(blocks, np.diag(signs), params=params)
        mark = "ok " if report.passed else "X  "
        rule = "ok" if k % j == 0 and (k // j) % 2 == 1 else "X"
        cells.append(f"{mark}{report.relative_residual:9.2e} rule {rule}")
    print(f"{k:>2} {cells[0]:>20} {cells[1]:>20} {cells[2]:>20}")

print("\n'ok' marks a relative residual within the verification tolerance; 'rule ok'")
print("marks a candidate (-1)^(p // j) with j dividing k and k/j odd.")
print("The intertwining defect does not depend on the qubit gap; failures")
print("come entirely from the coupling term, so they scale with |g|.")

counts, diagonal = [], True
for k in (1, 2, 3):
    dim = 6
    v = np.linalg.eigh(build_full(ModelParams(alpha=0.7, omega=1.0, g=0.35 + 0.3j, k=k,
                                              dim=dim)))[1]
    involutions = []
    for cols in itertools.combinations(range(2 * dim), dim):
        upper, lower = v[:dim, cols], v[dim:, cols]
        singular = np.linalg.svd(upper, compute_uv=False)
        if singular[-1] > 1e-6 * singular[0]:
            x = lower @ np.linalg.inv(upper)
            if (np.abs(x - x.conj().T).max() < 1e-12
                    and np.abs(x @ x - np.eye(dim)).max() < 1e-12):
                involutions.append(x)
    counts.append(len(involutions))
    diagonal &= all(np.abs(x - np.diag(np.sign(np.diag(x).real))).max() < 1e-12
                    for x in involutions)
print(f"\nparity recovered from H's eigenvectors (dim 6, k = 1, 2, 3): {counts} solutions "
      f"{'=' if counts == [2, 4, 8] else '!='} 2^k, "
      f"{'all' if diagonal else 'NOT all'} diagonal +-1")
