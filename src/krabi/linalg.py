"""Dense complex matrix validation and a checked Hermitian eigensolver.

Every operator in this package is a plain square ``numpy.ndarray`` of
``complex128`` entries in row-major (C) order. The functions here add the
validation, error reporting and text serialization that the rest of the
package relies on. Once inputs are validated, internal code uses numpy
arithmetic directly.

The eigensolver targets desk-scale problems (dimension up to about 1024)
and is deterministic: identical input bytes produce identical output bytes
on a given platform. Callers that read only eigenvalues pass
``vectors=False``, which skips building the eigenvector matrix. Norms go
through :func:`_norm`, which stays finite where the sum of squares of
finite entries overflows but the norm does not. :func:`_checked_hermitian`
holds the package's one Hermiticity rule; the eigensolver and
:class:`krabi.model.BlockOperator` both apply it. One writer and one
reader serve matrix and vector files, which hold finite values only: a round
trip keeps every bit, the writers refuse nan and inf, and the reader refuses
them as it does a malformed file, with a ShapeError naming its kind and path.
"""

from __future__ import annotations

import math

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


def _norm(a) -> float:
    """Frobenius norm of ``a``, also where the plain sum of squares overflows.

    Only an infinite plain norm of finite entries is recomputed, on ``a``
    divided by its largest modulus; the result is infinite only when the
    norm itself exceeds the float64 range.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if norm == math.inf:
            peak = float(np.max(np.abs(a)))
            if math.isfinite(peak):
                norm = peak * float(np.linalg.norm(a / peak))
    return norm


def _checked_hermitian(a, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as a square ``complex128`` array, and its adjoint ``a^dag``.

    The one Hermiticity rule of the package: raises HermiticityError when
    ``||a - a^dag||_F`` exceeds ``HERMITICITY_RTOL * ||a||_F``. An exactly
    Hermitian matrix, as every assembled one here is, needs no bound.
    """
    a = as_square_complex(a, name)
    adjoint = a.conj().T
    defect = _norm(a - adjoint)
    if defect > 0:
        bound = HERMITICITY_RTOL * _norm(a)
        if defect > bound:
            raise HermiticityError(
                f"matrix is not Hermitian: defect {defect:.3e} "
                f"exceeds {HERMITICITY_RTOL:.1e} * ||{name}|| = {bound:.3e}"
            )
    return a, adjoint


def eig_hermitian(a, *, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues, and by default eigenvectors, of a Hermitian matrix.

    Checks Hermiticity (:func:`_checked_hermitian`), symmetrizes to
    ``(a + a^dag)/2`` to absorb assembly roundoff, and diagonalizes. Returns
    ``(w, v)``: real eigenvalues ``w`` ascending and eigenvectors as the
    columns of the unitary ``v``, so that ``a @ v[:, i] = w[i] * v[:, i]``.
    With ``vectors=False`` only the eigenvalues are computed
    (``np.linalg.eigvalsh``) and ``v`` is None; the checks are the same.

    Raises HermiticityError for non-Hermitian input and EigenSolverError if
    the iteration fails to converge (which indicates a bug, not bad input).
    """
    a, adjoint = _checked_hermitian(a, "a")
    # Halved before the sum, which cannot overflow for finite entries.
    return _eigh(a * 0.5 + adjoint * 0.5, vectors)


def _eigh(a, vectors: bool):
    """``np.linalg.eigh``, or ``eigvalsh`` and None, of a matrix or a stack; EigenSolverError
    when it fails to converge."""
    try:
        return np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"Hermitian eigensolver failed to converge: {exc}") from exc


# -- plain-text serialization ------------------------------------------------
#
# A count line n, then one "re im" line per value: the n*n entries of a
# matrix in row-major order, or the n components of a vector. "%.16e" keeps
# the 17 significant digits that parse back to the same double.


def _dump(a: np.ndarray, path) -> None:
    """Write the C-contiguous complex128 ``a``: the count ``len(a)``, then its entries."""
    pairs = a.reshape(-1, 1).view(np.float64).tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join([f"{len(a)}\n", *(f"{re:.16e} {im:.16e}\n" for re, im in pairs)]))


def _load(path, kind: str) -> np.ndarray:
    """The array in a ``kind`` file, (n, n) for "matrix" or (n,) for "vector"; ShapeError naming
    the kind and path unless it is ASCII text: a count n >= 1, then two finite floats per entry."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        tokens = data.decode("ascii").split()
        if not tokens:
            raise ValueError("the file is empty")
        n = int(tokens[0])
        shape = (n, n) if kind == "matrix" else (n,)
        if n < 1 or len(tokens) != 1 + 2 * math.prod(shape):
            raise ValueError(f"the count {n} is not positive or does not match the "
                             f"{len(tokens) - 1} values")
        values = np.array(tokens[1:], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"value {tokens[bad[0] + 1]!r} is not finite")
    except ValueError as exc:
        raise ShapeError(f"{kind} file {str(path)!r} malformed: {exc}") from None
    return values.view(np.complex128).reshape(shape)


def dump_matrix(a, path) -> None:
    """Write a square complex matrix to ``path`` in the plain-text format."""
    _dump(as_square_complex(a, "a"), path)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`dump_matrix`; ShapeError if malformed or not finite."""
    return _load(path, "matrix")


def dump_vector(v, path) -> None:
    """Write a nonempty finite complex vector, flattened, to ``path`` in the plain-text format."""
    v = np.ascontiguousarray(np.asarray(v), dtype=np.complex128).reshape(-1)
    if v.size == 0:
        raise ShapeError("cannot dump an empty vector")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ShapeError("cannot dump a vector with non-finite entries")
    _dump(v, path)


def load_vector(path) -> np.ndarray:
    """Read a vector written by :func:`dump_vector`; ShapeError if malformed or not finite."""
    return _load(path, "vector")
