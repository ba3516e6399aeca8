"""Block diagonalization versus full diagonalization.

Conjugating the full 2*dim Hamiltonian with the parity-built similarity
transform leaves two decoupled boson-space blocks. Diagonalizing the two
dim-sized blocks reproduces the full spectrum; the printed deviations
measure how exactly.
"""

import numpy as np

from krabi import (
    ModelParams,
    build_blocks,
    block_diagonalize,
    generalized_parity_signs,
    sector_spectrum,
    similarity_transform,
)
from krabi.linalg import eig_hermitian

for k, dim in ((1, 32), (2, 32), (3, 48)):
    params = ModelParams(alpha=0.8, omega=1.0, g=0.4 + 0.3j, k=k, dim=dim)
    blocks = build_blocks(params)
    x = np.diag(generalized_parity_signs(k, dim))
    s, s_inv = similarity_transform(x)
    conjugated = s_inv @ blocks.full_matrix() @ s
    off = max(np.linalg.norm(conjugated[:dim, dim:]), np.linalg.norm(conjugated[dim:, :dim]))

    top, bottom = block_diagonalize(blocks, x)
    merged = np.sort(np.concatenate([eig_hermitian(top, vectors=False)[0],
                                     eig_hermitian(bottom, vectors=False)[0]]))
    full = eig_hermitian(blocks.full_matrix(), vectors=False)[0]
    deviation = np.max(np.abs(merged - full))

    print(f"k={k}, dim={dim}: off-diagonal after conjugation {off:.2e}, "
          f"spectral deviation {deviation:.2e}")

print("\nlowest levels per block, k=2, dim=32:")
params = ModelParams(alpha=0.8, omega=1.0, g=0.4 + 0.3j, k=2, dim=32)
w_top, w_bottom = sector_spectrum(params, 5)
for i, (wt, wb) in enumerate(zip(w_top, w_bottom)):
    print(f"  level {i}: +block {wt:12.8f}   -block {wb:12.8f}")
