"""Exception types shared across the package, and one check per integer argument rule."""

import numbers


class ShapeError(ValueError):
    """Operands have incompatible or otherwise invalid dimensions."""


class HermiticityError(ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class SolutionError(ValueError):
    """A candidate operator failed verification where a verified solution is required."""


class EigenSolverError(RuntimeError):
    """The eigensolver did not converge. Signals a bug, not a user error."""


def _integer(value, name: str) -> int:
    """``value`` as a Python int. A bool, float or string is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _dim(dim) -> int:
    """A truncation of at least two Fock states."""
    dim = _integer(dim, "dim")
    if dim < 2:
        raise ShapeError(f"dim must be at least 2, got {dim}")
    return dim


def _k_dim(k, dim) -> tuple[int, int]:
    """A photon number k >= 1 and a truncation that keeps two states per sector."""
    k, dim = _integer(k, "k"), _integer(dim, "dim")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if dim < 2 * k:
        raise ShapeError(f"dim must be at least 2*k = {2 * k}, got {dim}")
    return k, dim


def _levels(levels, dim: int) -> int:
    """A count of lowest levels within 1..dim; ShapeError outside it."""
    levels = _integer(levels, "levels")
    if not 1 <= levels <= dim:
        raise ShapeError(f"levels must satisfy 1 <= levels <= dim = {dim}, got {levels}")
    return levels


def _steps(steps, least: int) -> int:
    """A count of grid or time steps of at least ``least``; ValueError below it."""
    steps = _integer(steps, "steps")
    if steps < least:
        raise ValueError(f"steps must be at least {least}, got {steps}")
    return steps
