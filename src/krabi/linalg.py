"""Dense complex matrix validation and a checked Hermitian eigensolver.

Every operator in this package is a plain square ``numpy.ndarray`` of
``complex128`` entries in row-major (C) order. The functions here add the
validation, error reporting and text serialization that the rest of the
package relies on. :func:`_array` is the one rule for array arguments, every
matrix (through :func:`as_square_complex`) and vector: numeric entries, the
exact shape and finite values. Once inputs are validated, internal code uses
numpy arithmetic directly.

The eigensolver targets desk-scale problems (dimension up to about 1024)
and is deterministic: identical input bytes produce identical output bytes
on a given platform. Callers that read only eigenvalues pass
``vectors=False``, which skips building the eigenvector matrix. Norms go
through :func:`_norm`, which stays finite where the sum of squares of
finite entries overflows but the norm does not, and nonzero where it
underflows but the norm does not. :func:`_checked_hermitian`
holds the package's one Hermiticity rule; the eigensolver and
:class:`krabi.model.BlockOperator` both apply it. One writer and one
reader serve matrix and vector files, which hold finite values only: a round
trip keeps every bit, the writers refuse nan and inf, and the reader refuses
them as it does a malformed file, with a ShapeError naming its kind and path.
The reader reads no more text than the file's count allows, and checks that
read with the size guard first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenSolverError, HermiticityError, ShapeError, _require_memory

#: Relative tolerance deciding whether a matrix counts as Hermitian.
HERMITICITY_RTOL = 1e-12


_SHAPES = {1: "a vector", 2: "a square matrix"}


def _array(a, name: str, ndim: int) -> np.ndarray:
    """The one array rule: ``a`` as a nonempty, finite, C-contiguous ``complex128`` vector
    (``ndim`` 1) or square matrix (2), not copied if it is one. ValueError naming ``name``
    unless its entries are numbers; ShapeError for any other shape, or a nan or inf entry."""
    try:
        arr = np.asarray(a)
    except ValueError:
        raise ValueError(f"{name} must be an array of numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "iufc":
        raise ValueError(f"{name} must be an array of numbers, got dtype {arr.dtype}")
    if arr.ndim != ndim or arr.size == 0 or arr.shape[0] != arr.shape[-1]:
        raise ShapeError(f"{name} must be {_SHAPES[ndim]}, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    if not np.isfinite(arr.view(np.float64)).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def as_square_complex(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a square matrix by :func:`_array`, the check of every matrix argument."""
    return _array(a, name, 2)


def _norm(a) -> float:
    """Frobenius norm of ``a``, also where the plain sum of squares overflows or underflows.

    A plain norm that is infinite for finite entries, or 0 for nonzero ones, is taken again
    on ``a`` over its largest modulus (on ``|a|`` for underflow: ``a / peak`` overflows for
    complex ``a`` at a subnormal peak); it stays infinite only past the float64 range.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if norm == math.inf or (norm == 0.0 and a.any()):
            peak = float(np.max(np.abs(a)))
            if math.isfinite(peak):
                norm = peak * float(np.linalg.norm(a / peak if norm else np.abs(a) / peak))
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

#: Bytes of the first read of a file, which must hold its count, and of each read after it.
_PIECE = 1 << 16
#: Bytes of text a value may take: "%.16e" writes at most 24 and a separator, and the rest
#: leaves room for ordinary whitespace.
_VALUE_BYTES = 64
#: Bytes per value of the parsed text beside it: a token string, its two list slots and
#: its float.
_TOKEN_BYTES = 100


def _dump(a: np.ndarray, path) -> None:
    """Write the C-contiguous complex128 ``a``: the count ``len(a)``, then its entries, one
    row of a matrix (a vector is one row) at a time, so the text of ``a`` is never held whole."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(a)}\n")
        for row in np.atleast_2d(a):
            pairs = row.reshape(-1, 1).view(np.float64).tolist()
            fh.write("".join([f"{re:.16e} {im:.16e}\n" for re, im in pairs]))


def _load(path, kind: str) -> np.ndarray:
    """The array in a ``kind`` file, (n, n) for "matrix" or (n,) for "vector"; ShapeError naming
    the kind and path unless it is ASCII text: a count n >= 1, then two finite floats per entry.

    The first ``_PIECE`` bytes must hold the count. The size guard checks the read that the
    count implies before the rest is read, and the rest may hold at most ``_VALUE_BYTES`` a
    value. So a file that never ends, such as /dev/zero, is refused after a bounded read.
    """
    with open(path, "rb") as fh:
        try:
            piece = fh.read(_PIECE)
            head = piece.split(maxsplit=1)
            if len(head) < 2 and len(piece) == _PIECE:
                raise ValueError(f"its first {_PIECE} bytes hold no count")
            if not head:
                raise ValueError("the file is empty")
            n = int(head[0].decode("ascii"))
            if not 1 <= n < 2**63:
                raise ValueError(f"the count {n} is not within 1 .. 2**63 - 1")
            shape = (n, n) if kind == "matrix" else (n,)
            size = 2 * math.prod(shape)
            limit = _PIECE + _VALUE_BYTES * size
            _require_memory(2 * limit + _TOKEN_BYTES * size,
                            f"reading {kind} file {str(path)!r} of count {n}")
            data = bytearray(piece)
            while len(piece) == _PIECE and len(data) <= limit:
                piece = fh.read(_PIECE)
                data += piece
            if len(data) > limit:
                raise ValueError(f"it holds more than {limit} bytes, past {_VALUE_BYTES} "
                                 f"a value for the count {n}")
            tokens = data.decode("ascii").split()
            if len(tokens) != 1 + size:
                raise ValueError(f"the count {n} does not match the {len(tokens) - 1} values")
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
    """Write a nonempty finite complex vector, 1-D as :func:`_array` demands, to ``path`` in
    the plain-text format. Nothing is written for a refused ``v``."""
    _dump(_array(v, "v", 1), path)


def load_vector(path) -> np.ndarray:
    """Read a vector written by :func:`dump_vector`; ShapeError if malformed or not finite."""
    return _load(path, "vector")
