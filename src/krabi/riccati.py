"""Operator Riccati residuals, solution verification and block diagonalization.

A 2x2 block Hamiltonian [[h_plus, v], [v^dag, h_minus]] decouples under the
similarity transform

    s = [[I, -x^dag], [x, I]]

exactly when x satisfies the operator Riccati equation

    x v x + x h_plus - h_minus x - v^dag = 0.

Any Hermitian involution x that intertwines the diagonal blocks
(x h_plus = h_minus x) is such a solution: the quadratic term collapses to
v and cancels v^dag. For a Hermitian involution the transform inverts in
closed form, s_inv = (1/2) [[I, x], [-x, I]]; general (non-involutive)
solutions are out of scope here, so :func:`similarity_transform` refuses
anything else rather than attempting a generic block inversion.

Verification is numerical and falsifiable: :func:`residual` evaluates the
equation, :func:`verify_involution_solution` scores a candidate and
:func:`block_diagonalize` demands a verified candidate before producing
the decoupled blocks h_plus + v x and h_minus - (v x)^dag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, SolutionError
from .linalg import HERMITICITY_RTOL, _norm, as_square_complex, eig_hermitian
from .model import BlockOperator, ModelParams

#: Default relative verification tolerance. Two orders of headroom above
#: accumulated roundoff at truncation 1024.
DEFAULT_TOLERANCE = 1e-10


def _checked_candidate(blocks: BlockOperator, x) -> np.ndarray:
    x = as_square_complex(x, "x")
    if x.shape[0] != blocks.dim:
        raise ShapeError(f"dimension mismatch: x is {x.shape[0]}, blocks are {blocks.dim}")
    return x


def residual(blocks: BlockOperator, x) -> np.ndarray:
    """Riccati residual x v x + x h_plus - h_minus x - v^dag.

    For the Rabi blocks, where v = alpha*I, this is
    alpha*x^2 + x h_plus - h_minus x - alpha*I.
    """
    x = _checked_candidate(blocks, x)
    v = blocks.coupling
    return x @ v @ x + x @ blocks.h_plus - blocks.h_minus @ x - v.conj().T


@dataclass
class VerificationReport:
    """Outcome of checking a candidate against the Riccati equation.

    ``relative_residual`` scales the residual norm by
    ||h_plus|| + ||h_minus|| + 2*||v|| (Frobenius). ``is_involution`` and
    ``intertwines`` reflect the stored defect norms compared against
    ``tolerance``. ``spectra_match`` is the maximum deviation between the
    sorted union of the decoupled block spectra and the full spectrum; it
    is filled only when requested and only for a passing candidate.
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
    compare_spectra: bool = False,
) -> VerificationReport:
    """Score a candidate: involution, intertwining and Riccati residual.

    Never raises on a failing candidate; failures are recorded in the
    report so that claims stay falsifiable.
    """
    x = _checked_candidate(blocks, x)
    dim = blocks.dim
    hp, hm, v = blocks.h_plus, blocks.h_minus, blocks.coupling

    res = residual(blocks, x)
    residual_norm = _norm(res)
    block_scale = _norm(hp) + _norm(hm)
    scale = block_scale + 2.0 * _norm(v)
    relative_residual = residual_norm / scale if scale > 0 else residual_norm

    x_norm = _norm(x)
    involution_defect = _norm(x @ x - np.eye(dim))
    is_involution = involution_defect <= tol * max(1.0, x_norm * x_norm)

    intertwining_defect = _norm(x @ hp - hm @ x)
    intertwines = intertwining_defect <= tol * max(1.0, block_scale)

    report = VerificationReport(
        residual_norm=residual_norm,
        relative_residual=relative_residual,
        involution_defect=involution_defect,
        intertwining_defect=intertwining_defect,
        is_involution=is_involution,
        intertwines=intertwines,
        tolerance=float(tol),
        params=params,
    )

    if compare_spectra and report.passed:
        report.spectra_match = _spectra_match(blocks, x)

    return report


def _spectra_match(blocks: BlockOperator, x: np.ndarray) -> float:
    """Largest deviation of the merged decoupled block spectra from the full spectrum."""
    top, bottom = _decoupled_blocks(blocks, x)
    merged = np.sort(np.concatenate([eig_hermitian(top, vectors=False)[0],
                                     eig_hermitian(bottom, vectors=False)[0]]))
    full = eig_hermitian(blocks.full_matrix(), vectors=False)[0]
    return float(np.max(np.abs(merged - full)))


def similarity_transform(x) -> tuple[np.ndarray, np.ndarray]:
    """Transform s = [[I, -x^dag], [x, I]] and its closed-form inverse.

    Valid only for Hermitian involutions, where
    s_inv = (1/2) [[I, x], [-x, I]] and s @ s_inv = I holds to roundoff.
    Raises SolutionError otherwise; inverting the transform for a general
    x is out of scope.
    """
    x = as_square_complex(x, "x")
    dim = x.shape[0]
    norm = float(np.linalg.norm(x))
    if float(np.linalg.norm(x - x.conj().T)) > HERMITICITY_RTOL * max(1.0, norm):
        raise SolutionError("x is not Hermitian; closed-form inverse unavailable")
    if float(np.linalg.norm(x @ x - np.eye(dim))) > HERMITICITY_RTOL * max(1.0, norm**2):
        raise SolutionError("x is not an involution; closed-form inverse unavailable")
    eye = np.eye(dim, dtype=np.complex128)
    s = np.block([[eye, -x.conj().T], [x, eye]])
    s_inv = 0.5 * np.block([[eye, x], [-x, eye]])
    return s, s_inv


def _decoupled_blocks(blocks: BlockOperator, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vx = blocks.coupling @ x
    return blocks.h_plus + vx, blocks.h_minus - vx.conj().T


def block_diagonalize(
    blocks: BlockOperator,
    x,
    *,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled blocks (h_plus + v x, h_minus - (v x)^dag).

    Requires x to pass :func:`verify_involution_solution` at ``tol``;
    raises SolutionError otherwise. For the Rabi blocks with Hermitian x
    this reduces to h_plus + alpha*x and h_minus - alpha*x.
    """
    x = _checked_candidate(blocks, x)
    _require_passed(verify_involution_solution(blocks, x, tol=tol))
    return _decoupled_blocks(blocks, x)


def _require_passed(report: VerificationReport) -> None:
    """Raise SolutionError, with the report's defects, unless it passed."""
    if not report.passed:
        raise SolutionError(
            "candidate is not a verified Riccati solution: relative residual "
            f"{report.relative_residual:.3e}, involution defect "
            f"{report.involution_defect:.3e}, intertwining defect "
            f"{report.intertwining_defect:.3e} (tolerance {report.tolerance:.1e})"
        )
