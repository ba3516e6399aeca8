"""Sector-tridiagonal core: each decoupled block as k real tridiagonal matrices.

The generalized parity is the sign vector s_p = (-1)^(p // k). The coupling
conj(g)*a^k + g*(a^dag)^k links Fock state p only to p + k, with amplitude

    amp_p = sqrt((p+1)(p+2)...(p+k)),

so it never leaves a sector, and the decoupled blocks

    top    = h_plus + alpha*x  = omega*N + W + alpha*diag(s)
    bottom = h_minus - alpha*x = omega*N - W - alpha*diag(s)

are tridiagonal on each sector l (Fock indices l-1, l-1+k, ...). The
diagonal unitary D = diag(exp(i*arg(g)*p/k)) takes the phase off g: the band
of conj(D) W D is the real |g|*amp_p. So each block is D times a direct sum
of k real symmetric tridiagonals times conj(D), and its eigenvectors are D
times real vectors supported on one sector.

Verification runs on the band as well, in O(dim): the parity's three defects
are computed there and judged by
:meth:`krabi.riccati.VerificationReport.from_norms`, the rule that
:func:`krabi.riccati.verify_involution_solution` applies to the dense blocks.
The generalized parity's defects there are exact zeros (s_(p+k) = -s_p), so
every solve here verifies it at tolerance 0, once per model.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EigenSolverError, SolutionError
from .model import ModelParams
from .parity import _lowering_band, generalized_parity_signs
from .riccati import VerificationReport, _require_passed


def band(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal omega*p (p < dim) and coupling amplitudes amp_p (p < dim - k).

    Raises ValueError when a band entry, omega*p or |g|*amp_p, overflows
    float64.
    """
    amplitudes = _lowering_band(params.k, params.dim)
    # Both grow with p, so the last entries are the largest.
    largest = (params.omega * (params.dim - 1),
               math.hypot(params.g.real, params.g.imag) * float(amplitudes[-1]))
    if not all(map(math.isfinite, largest)):
        raise ValueError(
            f"the band overflows float64: omega*(dim - 1) = {largest[0]:.3e}, "
            f"|g|*amp_(dim-k-1) = {largest[1]:.3e}"
        )
    return params.omega * np.arange(params.dim, dtype=np.float64), amplitudes


def real_signs(signs) -> np.ndarray:
    """The parity's diagonal as float64, or SolutionError unless it is real +-1.

    A diagonal parity is a Hermitian involution exactly when its diagonal is
    real +-1: this is the O(dim) form of similarity_transform's check.
    """
    signs = np.asarray(signs)
    real = signs.real.astype(np.float64)
    if np.any(signs.imag != 0) or np.any(np.abs(real) != 1):
        raise SolutionError("parity diagonal is not a real +-1 vector")
    return real


def verify_band(params: ModelParams, signs: np.ndarray, tol: float) -> VerificationReport:
    """:func:`verify_involution_solution` of the diagonal parity ``diag(signs)``.

    For real signs s, the residual alpha*x^2 + x h_plus - h_minus x - alpha*I
    is alpha*(s_p^2 - 1) on the diagonal and the intertwining defect
    conj(g)*amp_p*(s_p + s_(p+k)) at (p, p+k), with its conjugate at (p+k, p).
    h_plus and h_minus share the norm sqrt(||omega*p||^2 + 2*||g*amp||^2).
    omega and |g| multiply norms taken without them, so no sum of squares
    overflows. Raises ValueError, as :func:`band` does, when the scale
    2*||h_pm|| + 2*|alpha|*sqrt(dim) overflows float64: past it the levels
    themselves may.
    """
    _, amplitudes = band(params)
    k, dim, abs_g = params.k, params.dim, abs(params.g)
    # ||(0, 1, ..., dim - 1)|| in closed form.
    diagonal_norm = params.omega * math.sqrt((dim - 1) * dim * (2 * dim - 1) / 6)
    coupling_norm = abs_g * float(np.linalg.norm(amplitudes))
    block_norm = math.hypot(diagonal_norm, math.sqrt(2.0) * coupling_norm)
    scale = 2.0 * block_norm + 2.0 * abs(params.alpha) * math.sqrt(dim)
    if not math.isfinite(scale):
        raise ValueError("the band overflows float64: 2*||h_pm|| + 2*|alpha|*sqrt(dim) "
                         f"= {scale:.3e}")
    involution_defect = float(np.linalg.norm(signs * signs - 1.0))
    intertwining_defect = math.sqrt(2.0) * abs_g * float(
        np.linalg.norm(amplitudes * (signs[:-k] + signs[k:])))
    return VerificationReport.from_norms(
        residual_norm=math.hypot(abs(params.alpha) * involution_defect, intertwining_defect),
        scale=scale, involution_defect=involution_defect, x_norm=float(np.linalg.norm(signs)),
        intertwining_defect=intertwining_defect, block_scale=2.0 * block_norm, tol=tol,
        params=params)


def gauge(g: complex, k: int, dim: int) -> np.ndarray:
    """Diagonal of D: exp(i*arg(g)*p/k) for p < dim.

    With p = k*n + r this is exp(i*arg(g)*n) * exp(i*arg(g)*r/k), and arg(g)
    is split as hi + lo with hi rounded to a float32's 24 bits, so that hi*n
    is exact for n < 2**29: neighbours p and p + k differ by the phase arg(g)
    to roundoff at every level n, instead of by an error that grows as n*eps.
    """
    theta = float(np.angle(g))
    hi = float(np.float32(theta))
    n, r = np.divmod(np.arange(dim, dtype=np.float64), k)
    return np.exp(1j * hi * n) * np.exp(1j * ((theta - hi) * n + theta * r / k))


def _solve_tridiagonal(solver, diagonal: np.ndarray, off: np.ndarray):
    """``solver`` (``np.linalg.eigh`` or ``eigvalsh``) of a real symmetric tridiagonal."""
    n = diagonal.size
    matrix = np.diag(diagonal)
    index = np.arange(n - 1)
    matrix[index + 1, index] = off
    matrix[index, index + 1] = off
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"Hermitian eigensolver failed to converge: {exc}") from exc


def _verified_sectors(params: ModelParams):
    """Verify the generalized parity on the band; return ``(signs, sectors)``.

    ``sectors[b][l]`` is the (diagonal, off-diagonal) pair of block b (0 top,
    1 bottom) on sector l + 1: ``omega*p +- alpha*s_p`` and ``+-|g|*amp_p``
    on Fock indices l, l + k, .... Raises SolutionError, as
    :func:`krabi.riccati.block_diagonalize` does, when the parity is not a
    real +-1 vector or fails verification at tolerance 0.
    """
    k, dim = params.k, params.dim
    signs = real_signs(generalized_parity_signs(k, dim))
    _require_passed(verify_band(params, signs, 0.0))
    diagonal, amplitudes = band(params)
    coupling = abs(params.g) * amplitudes
    sectors = []
    for sign in (1.0, -1.0):
        block_diagonal = diagonal + sign * params.alpha * signs
        block_coupling = sign * coupling
        sectors.append(tuple((block_diagonal[l::k], block_coupling[l::k]) for l in range(k)))
    return signs, tuple(sectors)


class SectorSystem(NamedTuple):
    """Eigensystem of both decoupled blocks, sector by sector.

    ``sectors[b][l]`` is ``(w, u)`` for block b (0 top, 1 bottom) on sector
    l + 1: ascending eigenvalues and real orthonormal eigenvectors of its
    tridiagonal, on the sector's Fock indices l, l + k, .... The block's
    eigenvector for column j is ``phase * v`` with v zero off the sector and
    ``v[l::k] = u[:, j]``.
    """

    signs: np.ndarray
    phase: np.ndarray
    sectors: tuple


def sector_eigensystem(params: ModelParams) -> SectorSystem:
    """Verify the generalized parity on the band, then solve every sector.

    Raises SolutionError, as :func:`krabi.riccati.block_diagonalize` does,
    when the parity is not a real +-1 vector or fails verification exactly.
    """
    signs, sectors = _verified_sectors(params)
    solved = tuple(tuple(_solve_tridiagonal(np.linalg.eigh, *pair) for pair in block)
                   for block in sectors)
    return SectorSystem(signs, gauge(params.g, params.k, params.dim), solved)


def sector_levels(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of each decoupled block, ascending: ``(top, bottom)``.

    The parity is verified on the band as in :func:`sector_eigensystem`; each
    block's levels are the merged eigenvalues of its k real sector
    tridiagonals. The gauge D is a diagonal unitary, so it does not enter.
    """
    _, sectors = _verified_sectors(params)
    top, bottom = (np.sort(np.concatenate([_solve_tridiagonal(np.linalg.eigvalsh, *pair)
                                           for pair in block]))
                   for block in sectors)
    return top, bottom
