"""Exception types shared across the package, and one check per input rule.

A bool, str, None or array given for a number is a ValueError that names the
parameter; numpy scalars are accepted. A request whose estimated allocation
exceeds the machine's physical memory is a MemoryError, raised before any
of it is allocated.
"""

import functools
import math
import numbers
import os


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


def _k(k) -> int:
    """A photon number k >= 1."""
    k = _integer(k, "k")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return k


def _k_dim(k, dim) -> tuple[int, int]:
    """A photon number k >= 1 and a truncation that keeps two states per sector."""
    k, dim = _k(k), _integer(dim, "dim")
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


_KINDS = {float: (numbers.Real, "a real number"), complex: (numbers.Complex, "a complex number")}


def _number(value, name: str, kind: type = float, bound: str = ""):
    """``value`` as a finite ``kind`` (float or complex) that, for a float, is ``bound``
    ("> 0" or ">= 0") when one is given. An int past the float64 range is not finite."""
    abstract, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, abstract):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        x = kind(value)
    except OverflowError:
        x = kind(math.inf if value > 0 else -math.inf)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)
            and (bound != "> 0" or x > 0) and (bound != ">= 0" or x >= 0)):
        raise ValueError(f"{name} must be finite{f' and {bound}' if bound else ''}, got {x}")
    return x


@functools.cache
def _physical_memory() -> float:
    """Bytes of physical memory, read once; inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _require_memory(nbytes: int, request: str) -> None:
    """MemoryError naming ``request`` and both sizes when its estimated ``nbytes``
    exceed the physical memory; called before the allocation it estimates."""
    memory = _physical_memory()
    if nbytes > memory:
        raise MemoryError(f"{request} needs about {nbytes / 1e6:.1f} MB, more than the "
                          f"{memory / 1e6:.1f} MB of physical memory")
