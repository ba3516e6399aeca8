"""Operator Riccati residuals, solution verification and block diagonalization.

The Rabi Hamiltonian [[h_plus, alpha*I], [alpha*I, h_minus]] decouples under
the similarity transform

    s = [[I, -x^dag], [x, I]]

exactly when x satisfies the operator Riccati equation

    alpha*x^2 + x h_plus - h_minus x - alpha*I = 0,

whose left side alpha*(x^2 - I) + (x h_plus - h_minus x) sums x's two defects:
any involution that intertwines the diagonal blocks solves it. For a Hermitian
involution the transform inverts in closed form, s_inv = (1/2) [[I, x], [-x, I]];
general (non-involutive) solutions are out of scope here, so
:func:`similarity_transform` refuses anything else rather than attempting a
generic block inversion.

Verification is numerical and falsifiable: :func:`residual` evaluates the
equation, :func:`verify_involution_solution` scores a candidate and
:func:`block_diagonalize` demands a verified candidate before producing
the decoupled blocks h_plus + alpha*x and h_minus - alpha*x^dag, for any x.
Both this dense route and the band route of :mod:`krabi._sectors` only compute
norms, and :meth:`VerificationReport.from_norms` gives the verdict.

krabi's own dense solves (``krabi sweep`` and ``krabi verify --spectra``) keep the
parity as its sign vector s: for x = diag(s) the decoupled blocks differ from
h_plus and h_minus only on the diagonal, by +alpha*s and -alpha*s, so
:func:`_decoupled_levels` shifts the diagonals of one stacked copy of the blocks
and builds no parity matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import HermiticityError, ShapeError, SolutionError, _number, _require_memory
from .linalg import HERMITICITY_RTOL, _checked_hermitian, _eigh, _norm, as_square_complex
from .model import BlockOperator, ModelParams

#: Default relative verification tolerance. Two orders of headroom above
#: accumulated roundoff at truncation 1024.
DEFAULT_TOLERANCE = 1e-10


def _checked_candidate(blocks: BlockOperator, x) -> np.ndarray:
    x = as_square_complex(x, "x")
    if x.shape[0] != blocks.dim:
        raise ShapeError(f"dimension mismatch: x is {x.shape[0]}, blocks are {blocks.dim}")
    return x


def _defects(blocks: BlockOperator, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x^2 - I, x h_plus - h_minus x and the residual alpha*(x^2 - I) + (x h_plus - h_minus x)."""
    involution = x @ x - np.eye(blocks.dim)
    intertwining = x @ blocks.h_plus - blocks.h_minus @ x
    return involution, intertwining, blocks.alpha * involution + intertwining


def residual(blocks: BlockOperator, x) -> np.ndarray:
    """Riccati residual alpha*x^2 + x h_plus - h_minus x - alpha*I, from x's two defects."""
    return _defects(blocks, _checked_candidate(blocks, x))[2]


def _is_involution(defect: float, x_norm: float, tol: float) -> bool:
    """``||x^2 - I|| <= tol * max(1, ||x||^2)``, divided through by max(1, ||x||).

    So an infinite defect fails even where ||x||^2 is past the float64 range.
    """
    root = max(1.0, x_norm)
    return defect / root <= tol * root


@dataclass
class VerificationReport:
    """Outcome of checking a candidate x against the Riccati equation.

    :meth:`from_norms` holds the package's one verdict rule.
    ``relative_residual`` is the residual norm over
    ||h_plus|| + ||h_minus|| + 2*|alpha|*sqrt(dim) (Frobenius), or the residual norm
    itself when that scale is 0. ``is_involution`` holds when
    ||x^2 - I|| <= tolerance * max(1, ||x||^2), and ``intertwines`` when
    ||x h_plus - h_minus x|| <= tolerance * max(1, ||h_plus|| + ||h_minus||).
    ``spectra_match`` is the maximum deviation between the sorted union of
    the decoupled block spectra and the full spectrum; only
    ``krabi verify --spectra`` fills it, and only for a passing candidate.
    """

    residual_norm: float
    relative_residual: float
    involution_defect: float
    intertwining_defect: float
    is_involution: bool
    intertwines: bool
    tolerance: float
    spectra_match: float | None = None
    params: ModelParams | None = field(default=None, repr=False)

    @classmethod
    def from_norms(cls, *, residual_norm, scale, involution_defect, x_norm,
                   intertwining_defect, block_scale, tol, params=None) -> VerificationReport:
        """The report on x from its norms: ``scale`` is ||h_plus|| + ||h_minus||
        + 2*|alpha|*sqrt(dim) and ``block_scale`` is ||h_plus|| + ||h_minus||. Raises
        ValueError unless ``tol`` is finite and >= 0 and ``scale`` is finite."""
        tol = _number(tol, "tolerance", float, ">= 0")
        if not np.isfinite(scale):
            raise ValueError("the model overflows float64: ||h_plus|| + ||h_minus|| "
                             f"+ 2*|alpha|*sqrt(dim) = {scale:.3e}")
        return cls(
            residual_norm=residual_norm,
            relative_residual=residual_norm / scale if scale > 0 else residual_norm,
            involution_defect=involution_defect,
            intertwining_defect=intertwining_defect,
            is_involution=_is_involution(involution_defect, x_norm, tol),
            intertwines=intertwining_defect <= tol * max(1.0, block_scale),
            tolerance=tol,
            params=params,
        )

    @property
    def passed(self) -> bool:
        """All checks hold at the declared tolerance."""
        return bool(
            self.is_involution
            and self.intertwines
            and self.relative_residual <= self.tolerance
        )

    def to_dict(self) -> dict:
        params = None
        if self.params is not None:
            params = {
                "alpha": self.params.alpha,
                "omega": self.params.omega,
                "g_re": self.params.g.real,
                "g_im": self.params.g.imag,
                "k": self.params.k,
                "dim": self.params.dim,
            }
        return {
            "residual_norm": self.residual_norm,
            "relative_residual": self.relative_residual,
            "involution_defect": self.involution_defect,
            "intertwining_defect": self.intertwining_defect,
            "is_involution": self.is_involution,
            "intertwines": self.intertwines,
            "passed": self.passed,
            "spectra_match": self.spectra_match,
            "params": params,
            "tolerance": self.tolerance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def verify_involution_solution(
    blocks: BlockOperator,
    x,
    *,
    tol: float = DEFAULT_TOLERANCE,
    params: ModelParams | None = None,
) -> VerificationReport:
    """Score a candidate: involution, intertwining and Riccati residual.

    Never raises on a failing candidate; failures are recorded in the
    report so that claims stay falsifiable.
    """
    x = _checked_candidate(blocks, x)
    involution, intertwining, res = _defects(blocks, x)
    block_scale = _norm(blocks.h_plus) + _norm(blocks.h_minus)
    return VerificationReport.from_norms(
        residual_norm=_norm(res), involution_defect=_norm(involution),
        intertwining_defect=_norm(intertwining), x_norm=_norm(x),
        scale=block_scale + 2.0 * abs(blocks.alpha) * np.sqrt(blocks.dim),
        block_scale=block_scale, tol=tol, params=params)


def _decoupled_levels(blocks: BlockOperator, signs: np.ndarray) -> np.ndarray:
    """Levels of the decoupled blocks h_plus + alpha*diag(s) and h_minus - alpha*diag(s),
    shape (2, dim), ascending per block.

    For blocks krabi assembled exactly Hermitian and a verified sign vector ``signs``:
    one stacked copy of h_plus and h_minus, its two diagonals shifted in place by
    +alpha*s and -alpha*s, solved in one unchecked call.
    """
    stack = np.stack((blocks.h_plus, blocks.h_minus))
    # A view of both diagonals. Adding (-alpha)*s rounds as subtracting alpha*s does.
    stack.reshape(2, -1)[:, :: blocks.dim + 1] += np.outer((blocks.alpha, -blocks.alpha), signs)
    return _eigh(stack, vectors=False)[0]


def _spectra_match(blocks: BlockOperator, signs: np.ndarray) -> float:
    """Largest deviation of the merged decoupled block spectra from the full spectrum.

    For blocks that krabi assembled exactly Hermitian and their verified sign vector:
    both decoupled blocks are solved in one call and the full matrix in another, unchecked.
    """
    # At most eight dim x dim complex matrices at once, with a few vectors of levels: the
    # full matrix, filled in place, and LAPACK's copy of it. The one stacked copy of the
    # decoupled blocks is freed before it.
    _require_memory(16 * (8 * blocks.dim**2 + 8 * blocks.dim),
                    f"solving the full 2*dim matrix at dim = {blocks.dim}")
    merged = np.sort(_decoupled_levels(blocks, signs), axis=None)
    full = _eigh(blocks.full_matrix(), vectors=False)[0]
    return float(np.max(np.abs(merged - full)))


def similarity_transform(x) -> tuple[np.ndarray, np.ndarray]:
    """Transform s = [[I, -x^dag], [x, I]] and its closed-form inverse.

    Valid only for Hermitian involutions, where
    s_inv = (1/2) [[I, x], [-x, I]] and s @ s_inv = I holds to roundoff.
    Raises SolutionError otherwise; inverting the transform for a general
    x is out of scope. Both 2*dim matrices are filled in place, and a pair
    past the physical memory is refused with MemoryError before either exists.
    """
    try:
        x, adjoint = _checked_hermitian(x, "x")
    except HermiticityError:
        raise SolutionError("x is not Hermitian; closed-form inverse unavailable") from None
    dim = x.shape[0]
    # Ten dim x dim complex matrices at once: x, its adjoint and the two 2*dim results,
    # filled in place, with numpy's buffers for the strided writes (2**18 bytes at most).
    # The involution check's temporaries are freed before the results are allocated.
    _require_memory(16 * 10 * dim**2 + 2**19,
                    f"building the similarity transform at dim = {dim}")
    # A Hermitian involution is unitary, so an overflowing x @ x is no involution.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _norm(x @ x - np.eye(dim))
    if not _is_involution(defect, _norm(x), HERMITICITY_RTOL):
        raise SolutionError("x is not an involution; closed-form inverse unavailable")
    s = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    s_inv = np.zeros_like(s)
    np.fill_diagonal(s, 1.0)
    np.negative(adjoint, out=s[:dim, dim:])
    s[dim:, :dim] = x
    np.fill_diagonal(s_inv, 0.5)
    np.multiply(x, 0.5, out=s_inv[:dim, dim:])
    lower = s_inv[dim:, :dim]
    np.negative(x, out=lower)
    lower *= 0.5  # 0.5 * (-x): x * -0.5 would give some zero parts the other sign
    return s, s_inv


def block_diagonalize(
    blocks: BlockOperator,
    x,
    *,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled blocks (h_plus + alpha*x, h_minus - alpha*x^dag).

    Requires x to pass :func:`verify_involution_solution` at ``tol``;
    raises SolutionError otherwise.
    """
    x = _checked_candidate(blocks, x)
    _require_passed(verify_involution_solution(blocks, x, tol=tol))
    return blocks.h_plus + blocks.alpha * x, blocks.h_minus - blocks.alpha * x.conj().T


def _require_passed(report: VerificationReport) -> None:
    """Raise SolutionError, with the report's defects, unless it passed."""
    if not report.passed:
        raise SolutionError(
            "candidate is not a verified Riccati solution: relative residual "
            f"{report.relative_residual:.3e}, involution defect "
            f"{report.involution_defect:.3e}, intertwining defect "
            f"{report.intertwining_defect:.3e} (tolerance {report.tolerance:.1e})"
        )
