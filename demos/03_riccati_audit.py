"""Which parity operators solve the Riccati equation, measured.

Scores three candidates per photon number k: the generalized parity, the
bosonic parity and the two-photon parity. The generalized parity solves
for every k. The bosonic parity solves exactly the odd k; the two-photon
parity solves exactly k with k % 4 == 2, so extending it to all even
k >= 4 fails already at k = 4. Residuals, not assertions: every claim
here is the number printed next to it.
"""

import numpy as np

from krabi import (
    ModelParams,
    bosonic_parity_signs,
    build_blocks,
    generalized_parity_signs,
    two_photon_parity_signs,
    verify_involution_solution,
)

print(f"{'k':>2} {'generalized':>13} {'bosonic':>13} {'two-photon':>13}")
for k in range(1, 9):
    dim = 8 * k
    params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=k, dim=dim)
    blocks = build_blocks(params)
    cells = []
    for signs in (generalized_parity_signs(k, dim), bosonic_parity_signs(dim),
                  two_photon_parity_signs(dim)):
        report = verify_involution_solution(blocks, np.diag(signs), params=params)
        mark = "ok " if report.passed else "X  "
        cells.append(f"{mark}{report.relative_residual:9.2e}")
    print(f"{k:>2} {cells[0]:>13} {cells[1]:>13} {cells[2]:>13}")

print("\n'ok' marks a relative residual within the verification tolerance.")
print("The intertwining defect does not depend on the qubit gap; failures")
print("come entirely from the coupling term, so they scale with |g|.")
