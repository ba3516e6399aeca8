"""Dense complex matrix validation and a checked Hermitian eigensolver.

Every operator in this package is a plain square ``numpy.ndarray`` of
``complex128`` entries in row-major (C) order. The functions here add the
validation, error reporting and text serialization that the rest of the
package relies on. Once inputs are validated, internal code uses numpy
arithmetic directly.

The eigensolver targets desk-scale problems (dimension up to about 1024)
and is deterministic: identical input bytes produce identical output bytes
on a given platform.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError, HermiticityError, ShapeError

#: Relative tolerance deciding whether a matrix counts as Hermitian.
HERMITICITY_RTOL = 1e-12


def as_square_complex(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a square, C-contiguous ``complex128`` array.

    Raises ShapeError if the input is not a finite square matrix.
    """
    try:
        arr = np.ascontiguousarray(np.asarray(a), dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not convertible to a complex matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def hermiticity_defect(a) -> float:
    """Frobenius norm of ``a - a^dag``."""
    a = as_square_complex(a, "a")
    return float(np.linalg.norm(a - a.conj().T))


def eig_hermitian(a, rtol: float = HERMITICITY_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Checks Hermiticity to ``rtol * ||a||_F``, symmetrizes to ``(a + a^dag)/2``
    to absorb assembly roundoff, and diagonalizes. Returns ``(w, v)`` with
    real eigenvalues ``w`` in ascending order and eigenvectors as the columns
    of the unitary matrix ``v``, so that ``a @ v[:, i] = w[i] * v[:, i]``.

    Raises HermiticityError for non-Hermitian input and EigenSolverError if
    the iteration fails to converge (which indicates a bug, not bad input).
    """
    a = as_square_complex(a, "a")
    norm = float(np.linalg.norm(a))
    if hermiticity_defect(a) > rtol * norm:
        raise HermiticityError(
            f"matrix is not Hermitian: defect {hermiticity_defect(a):.3e} "
            f"exceeds {rtol:.1e} * ||a|| = {rtol * norm:.3e}"
        )
    h = (a + a.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    return w, v


# -- plain-text serialization ------------------------------------------------
#
# Matrix file: first line the dimension, then dim*dim lines "re im" in
# row-major order. Vector file: first line the length, then one "re im"
# line per component. 17 significant digits, scientific notation.

_FLT = "{:.16e}"


def dump_matrix(a, path: str) -> None:
    """Write a square complex matrix to ``path`` in the plain-text format."""
    a = as_square_complex(a, "a")
    dim = a.shape[0]
    lines = [str(dim)]
    flat = a.reshape(-1)
    lines.extend(f"{_FLT.format(z.real)} {_FLT.format(z.imag)}" for z in flat)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix written by :func:`dump_matrix`."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ShapeError(f"matrix file {path!r} is empty")
    dim = int(tokens[0])
    if dim < 1 or len(tokens) != 1 + 2 * dim * dim:
        raise ShapeError(f"matrix file {path!r} malformed: expected {2 * dim * dim} values")
    vals = np.array(tokens[1:], dtype=np.float64)
    flat = vals[0::2] + 1j * vals[1::2]
    return as_square_complex(flat.reshape(dim, dim), "loaded matrix")


def dump_vector(v, path: str) -> None:
    """Write a complex vector to ``path``: length line, then "re im" lines."""
    v = np.ascontiguousarray(np.asarray(v), dtype=np.complex128).reshape(-1)
    lines = [str(v.size)]
    lines.extend(f"{_FLT.format(z.real)} {_FLT.format(z.imag)}" for z in v)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_vector(path: str) -> np.ndarray:
    """Read a vector written by :func:`dump_vector`."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ShapeError(f"vector file {path!r} is empty")
    n = int(tokens[0])
    if n < 1 or len(tokens) != 1 + 2 * n:
        raise ShapeError(f"vector file {path!r} malformed: expected {2 * n} values")
    vals = np.array(tokens[1:], dtype=np.float64)
    return np.ascontiguousarray(vals[0::2] + 1j * vals[1::2])
