"""Sector-tridiagonal core: each decoupled block as k real tridiagonal matrices.

The generalized parity is the sign vector s_p = (-1)^(p // k). The coupling
conj(g)*a^k + g*(a^dag)^k links Fock state p only to p + k, with amplitude

    amp_p = sqrt((p+1)(p+2)...(p+k))

(:func:`krabi.model._amplitudes`, which the dense blocks are built from too),
so it never leaves a sector, and the decoupled blocks

    top    = h_plus + alpha*x  = omega*N + W + alpha*diag(s)
    bottom = h_minus - alpha*x = omega*N - W - alpha*diag(s)

are tridiagonal on each sector l (Fock indices l-1, l-1+k, ...). The
diagonal unitary D = diag(exp(i*arg(g)*p/k)) takes the phase off g: the band
of conj(D) W D is the real |g|*amp_p. So each block is D times a direct sum
of k real symmetric tridiagonals times conj(D), and its eigenvectors are D
times real vectors supported on one sector. Both blocks' sectors are held
as their band (:func:`sector_band`): diagonals d (2, k, n) and off-diagonals
e (2, k, n - 1), n = ceil(dim/k), laid out by :func:`sector_axes` (the
tests' oracle, ``tests/_oracle.py``, keeps the index form); the
dense (2, k, n, n) stack is filled from them only for the one eigensolve call.
When k does not divide dim, each short sector ends in a pad, a decoupled
state whose level lies above the block's spectrum and is dropped. At g = 0,
e is 0 at every k, even where amp_p overflows, so the model is solved. The
sector operators have their one home here; the test suite checks (d, e)
entrywise against the projector compression of the gauge-rotated dense
decoupled blocks, which the tests' oracle computes.

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

from .errors import _require_memory
from .linalg import _eigh, _norm
from .model import ModelParams, _amplitudes
from .parity import generalized_parity_signs
from .riccati import VerificationReport, _require_passed


def verify_band(params: ModelParams, signs: np.ndarray, tol: float) -> VerificationReport:
    """:func:`verify_involution_solution` of the diagonal parity ``diag(signs)``.

    The involution defect ||s*s - 1|| is 0 only when every entry of s is +-1,
    so at tolerance 0 this is the sign-vector check. The residual is
    alpha*(s_p^2 - 1) on the diagonal and the intertwining defect
    conj(g)*amp_p*(s_p + s_(p+k)) at (p, p+k), with its conjugate at (p+k, p).
    h_plus and h_minus share the norm sqrt(||omega*p||^2 + 2*||g*amp||^2).
    omega and |g| multiply norms taken without them, so no sum of squares
    overflows. :meth:`VerificationReport.from_norms` raises ValueError when
    the scale 2*||h_pm|| + 2*|alpha|*sqrt(dim) overflows float64.
    """
    amplitudes = _amplitudes(params)
    k, dim, abs_g = params.k, params.dim, abs(params.g)
    # ||(0, 1, ..., dim - 1)|| in closed form.
    diagonal_norm = params.omega * math.sqrt((dim - 1) * dim * (2 * dim - 1) / 6)
    coupling_norm = abs_g * _norm(amplitudes)
    block_norm = math.hypot(diagonal_norm, math.sqrt(2.0) * coupling_norm)
    scale = 2.0 * block_norm + 2.0 * abs(params.alpha) * math.sqrt(dim)
    involution_defect = _norm(signs * signs - 1.0)
    # An inf amplitude makes the scale inf; its product with a zero defect is nan, unused.
    with np.errstate(invalid="ignore"):
        intertwining_defect = math.sqrt(2.0) * abs_g * _norm(
            amplitudes * (signs[:-k] + signs[k:]))
    return VerificationReport.from_norms(
        residual_norm=math.hypot(abs(params.alpha) * involution_defect, intertwining_defect),
        scale=scale, involution_defect=involution_defect, x_norm=_norm(signs),
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


def sector_axes(x: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """View of ``x`` with its Fock axis, of length k*n, split into (sector l, level i).

    Fock state p = i*k + l is entry (l, i): the array form of the layout that the
    tests' oracle, ``tests/_oracle.py``, keeps as index arrays.
    """
    axis %= x.ndim
    return x.reshape(x.shape[:axis] + (-1, k) + x.shape[axis + 1 :]).swapaxes(axis, axis + 1)


def to_sectors(x: np.ndarray, k: int) -> np.ndarray:
    """``x[..., p]`` (p < dim) as ``(..., k, n)``, n = ceil(dim/k), zero on the pads.

    A pad ends each of sectors dim % k + 1 ... k when k does not divide dim.
    """
    padded = np.zeros(x.shape[:-1] + (x.shape[-1] + -x.shape[-1] % k,), dtype=x.dtype)
    padded[..., : x.shape[-1]] = x
    return sector_axes(padded, k)


def fock_mask(k: int, dim: int) -> np.ndarray:
    """``(k, n)`` mask of the sector positions that hold a Fock state: False on the pads."""
    return to_sectors(np.ones(dim, dtype=bool), k)


def _verified_signs(params: ModelParams) -> np.ndarray:
    """The generalized parity's integer signs, verified on the band at tolerance 0;
    SolutionError with the verdict's defects, as :func:`krabi.riccati.block_diagonalize`
    raises, when they fail, a vector that is not +-1 included."""
    signs = generalized_parity_signs(params.k, params.dim)
    _require_passed(verify_band(params, signs, 0.0))
    return signs


def sector_band(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verify the parity on the band; return ``(signs, d, e)``, the sector tridiagonals.

    ``d[b, l]`` and ``e[b, l]`` (shapes ``(2, k, n)`` and ``(2, k, n - 1)``,
    n = ceil(dim/k)) are the diagonal ``omega*p +- alpha*s_p`` and the
    off-diagonal ``+-|g|*amp_p`` of block b (0 top, 1 bottom) on sector l + 1,
    on Fock indices l, l + k, .... A pad is coupled to nothing (``e`` is 0 on
    its link), and its diagonal, (max |diagonal| + 2*max |off|) of the block
    times 1 + 2**-20, lies above every level of the block even after roundoff
    (Gershgorin), so its level sorts last in its sector.
    """
    k = params.k
    signs = _verified_signs(params)
    block_sign = np.array([[1.0], [-1.0]])
    d = to_sectors(params.omega * np.arange(params.dim, dtype=np.float64)
                   + (block_sign * params.alpha) * signs, k)
    e = to_sectors(block_sign * (abs(params.g) * _amplitudes(params)), k)
    bound = np.abs(d).max(axis=(1, 2)) + 2.0 * np.abs(e).max(axis=(1, 2))
    d[:, ~fock_mask(k, params.dim)[:, -1], -1] = (1.0 + 2.0**-20) * bound[:, None]
    return signs, d, e


def _solve(params: ModelParams, vectors: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(signs, w, u)``: :func:`sector_band`, filled into the dense ``(2, k, n, n)`` stack
    and solved in one call, for the levels alone (u None) or with the vectors."""
    sectors, n = 2 * params.k, -(-params.dim // params.k)
    # Float64 words: the stack and LAPACK's copy of one sector; with the vectors,
    # u and that sector's workspace; and the band's O(dim) arrays. Judged before the band.
    stack = sectors * n * n
    words = stack + n * n + (stack + 2 * n * n if vectors else 0) + 16 * params.dim
    _require_memory(8 * words, f"solving {sectors} sector matrices of size {n}")
    signs, d, e = sector_band(params)
    t = np.zeros(d.shape + (n,))
    flat = t.reshape(d.shape[:-1] + (n * n,))  # diagonals are strided slices
    flat[..., :: n + 1] = d
    flat[..., 1 :: n + 1] = flat[..., n :: n + 1] = e
    return signs, *_eigh(t, vectors=vectors)


class SectorSystem(NamedTuple):
    """Eigensystem of both decoupled blocks: every sector's, in one array.

    ``w[b, l]`` and ``u[b, l]`` (shapes ``(2, k, n)`` and ``(2, k, n, n)``)
    are the ascending eigenvalues and real orthonormal eigenvectors (columns)
    of block b (0 top, 1 bottom) on sector l + 1. The block's eigenvector for
    column j is ``phase * v`` with v zero off the sector and
    ``sector_axes(v)[l] = u[b, l, :, j]``. A short sector's last level is its
    pad's, with the pad's unit vector.
    """

    signs: np.ndarray
    phase: np.ndarray
    w: np.ndarray
    u: np.ndarray


def sector_eigensystem(params: ModelParams) -> SectorSystem:
    """Verify the generalized parity on the band, then solve all 2k sectors in one call."""
    signs, w, u = _solve(params, vectors=True)
    return SectorSystem(signs, gauge(params.g, params.k, params.dim), w, u)


def sector_levels(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of each decoupled block, ascending: ``(top, bottom)``.

    As :func:`sector_eigensystem`, for the levels alone, pads dropped. The
    gauge D is a diagonal unitary, so it does not enter.
    """
    w = _solve(params, vectors=False)[1]
    return tuple(np.sort(w[:, fock_mask(params.k, params.dim)]))
