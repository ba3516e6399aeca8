"""Sector-resolved spectra, coupling sweeps and decoupled time evolution.

Everything here goes through the verified generalized parity: the full
2*dim eigenproblem splits into the two decoupled blocks, each block is
diagonalized on its own, and full-matrix diagonalization is kept only as
the oracle the results are compared against (in the tests and in the
spectrum deviation reported by the CLI).

sector_spectrum and evolution verify the parity on the band and solve
each block as k real tridiagonal sector matrices (:mod:`krabi._sectors`).
Only sweep still uses the dense blocks, one grid point at a time: the
sector route makes it faster, but the benchmark sizes its input pool by
speed, and the larger pool pushes sweep-small past its memory bound, so it
waits for a batched sweep.

Time evolution uses eigendecomposition rather than ODE stepping, so there
is no step-size parameter to tune: the state is rotated into the block
frame with the closed-form inverse transform, each block component picks
up exact phase factors exp(-i*w*t), and the result is rotated back. The
parity is diagonal with entries +-1, so both frame changes are elementwise
sign flips on the sign vector s:

    block frame:    ((psi_u + s*psi_l) / 2, (psi_l - s*psi_u) / 2)
    physical frame: (b_u - s*b_l, s*b_u + b_l)

The transform is not unitary (it is sqrt(2) times a unitary), so
block-frame norms differ from physical norms, but the returned
physical-frame states stay normalized to roundoff.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._format import WORDS, format_fields
from ._sectors import SectorSystem, sector_eigensystem, sector_levels
from .errors import ShapeError, _integer
from .linalg import eig_hermitian
from .model import ModelParams, build_blocks
from .parity import generalized_parity
from .riccati import DEFAULT_TOLERANCE, block_diagonalize

_SWEEPABLE = ("g", "alpha", "omega")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over |g|, alpha or omega.

    ``levels`` lowest eigenvalues of each decoupled block are recorded at
    ``steps`` evenly spaced values in [lo, hi]. Sweeping "g" sweeps the
    coupling magnitude and keeps the phase of ``base.g``.
    """

    base: ModelParams
    param: str
    lo: float
    hi: float
    steps: int
    levels: int

    def __post_init__(self):
        if self.param not in _SWEEPABLE:
            raise ValueError(f"param must be one of {_SWEEPABLE}, got {self.param!r}")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError("sweep range must be finite")
        if self.lo > self.hi:
            raise ValueError(f"invalid range: lo = {self.lo} > hi = {self.hi}")
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        object.__setattr__(self, "levels", _integer(self.levels, "levels"))
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if not 1 <= self.levels <= self.base.dim:
            raise ValueError(
                f"levels must satisfy 1 <= levels <= dim = {self.base.dim}, got {self.levels}"
            )
        if self.param == "omega" and self.lo <= 0:
            raise ValueError("omega sweep requires lo > 0")
        if self.param == "g" and self.lo < 0:
            raise ValueError("coupling-magnitude sweep requires lo >= 0")

    def params_at(self, value: float) -> ModelParams:
        """Model parameters at one grid value of the swept quantity."""
        if self.param == "g":
            phase = np.angle(self.base.g) if self.base.g != 0 else 0.0
            return replace(self.base, g=value * np.exp(1j * phase))
        return replace(self.base, **{self.param: value})


@dataclass(frozen=True)
class EvolutionSpec:
    """Time grid and initial state for evolution from t = 0.

    The state must be normalized to 1 within 1e-12 and have length 2*dim
    (upper block components first). Returned grid times are j*dt for
    j = 0 .. steps.
    """

    initial_state: np.ndarray
    dt: float
    steps: int

    def __post_init__(self):
        state = np.ascontiguousarray(np.asarray(self.initial_state), dtype=np.complex128)
        if state.ndim != 1 or state.size < 2:
            raise ShapeError(f"initial state must be a vector, got shape {state.shape}")
        if not np.all(np.isfinite(state.view(np.float64))):
            raise ValueError("initial state contains non-finite entries")
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state must be normalized to 1, got norm {norm!r}")
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "dt", float(self.dt))
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")


def _verified_blocks(params: ModelParams, tol: float):
    x = generalized_parity(params.k, params.dim)
    return block_diagonalize(build_blocks(params), x, tol=tol)


def sector_spectrum(
    params: ModelParams,
    m: int,
    *,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``m`` eigenvalues of each decoupled block, ascending.

    The sorted union over all levels of both blocks reproduces the
    spectrum of the full 2*dim Hamiltonian; with ``m`` < dim the merge of
    the two returned lists still reproduces the bottom of it. The parity is
    verified on the band and each block is solved as its k real sector
    tridiagonals (:func:`krabi._sectors.sector_levels`); no dense matrix is
    built.
    """
    m = _integer(m, "m")
    if not 1 <= m <= params.dim:
        raise ShapeError(f"m must satisfy 1 <= m <= dim = {params.dim}, got {m}")
    top, bottom = sector_levels(params, tol)
    return top[:m].copy(), bottom[:m].copy()


def sweep(spec: SweepSpec, *, tol: float = DEFAULT_TOLERANCE, jobs: int = 1) -> list:
    """Evaluate a sweep; rows are (value, block, level, eigenvalue).

    Grid order, then block "+" before "-", then level index: the ordering
    is deterministic regardless of how many worker threads evaluate the
    independent grid points.
    """
    jobs = _integer(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    grid = np.linspace(spec.lo, spec.hi, spec.steps)

    def point(value: float) -> list:
        # Dense on purpose: a faster sweep grows the benchmark's input pool past its RSS bound.
        top, bottom = _verified_blocks(spec.params_at(float(value)), tol)
        w_top = eig_hermitian(top)[0][: spec.levels]
        w_bottom = eig_hermitian(bottom)[0][: spec.levels]
        rows = [(float(value), "+", i, float(w)) for i, w in enumerate(w_top)]
        rows += [(float(value), "-", i, float(w)) for i, w in enumerate(w_bottom)]
        return rows

    if jobs == 1:
        chunks = [point(v) for v in grid]
    else:
        # Imported here: only --jobs > 1 needs it, and it costs every import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(point, grid))
    return [row for chunk in chunks for row in chunk]


def sweep_csv(rows) -> str:
    """CSV text for sweep rows: header param,block,level,eigenvalue."""
    lines = ["param,block,level,eigenvalue"]
    for value, block, level, w in rows:
        lines.append(f"{value:.16e},{block},{level},{w:.16e}")
    return "\n".join(lines) + "\n"


def _ground_state(system: SectorSystem) -> np.ndarray:
    signs, phase, sectors = system
    k = len(sectors[0])
    # Equal lowest levels go to the top block (b = 0), then to the lowest sector.
    _, block, l = min((w[0], b, l) for b, block_sectors in enumerate(sectors)
                      for l, (w, _) in enumerate(block_sectors))
    v = np.zeros(signs.size, dtype=np.complex128)
    v[l::k] = sectors[block][l][1][:, 0]
    v *= phase
    state = np.concatenate([v, signs * v] if block == 0 else [-signs * v, v])
    return state / np.sqrt(2.0)


def ground_state(params: ModelParams, *, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Normalized ground state of the full 2*dim Hamiltonian, from the blocks.

    The lowest eigenpair of the two decoupled blocks is the ground state:
    an eigenvector u of the top block maps to [u; s*u] / sqrt(2), one of the
    bottom block to [-s*u; u] / sqrt(2). The blocks are solved sector by
    sector; ties go to the top block, then to the lowest sector.
    """
    return _ground_state(sector_eigensystem(params, tol))


def _block_trajectories(system: SectorSystem, state: np.ndarray, times: np.ndarray) -> list:
    """Each block's D * (u @ (c * exp(-i w t))), sector by sector, where
    c = u.T @ (conj(D) * b)[l::k] and b is the state's block-frame component."""
    signs, phase, sectors = system
    dim, k = signs.size, len(sectors[0])
    upper, lower = state[:dim], state[dim:]
    frames = ((upper + signs * lower) / 2, (lower - signs * upper) / 2)
    # Each sector's phase table and its product with the coefficients share one
    # buffer; columns are grid times.
    work = np.empty((-(-dim // k), times.size), dtype=np.complex128)
    blocks = []
    for frame, block in zip(frames, sectors):
        gauged = np.conj(phase) * frame
        trajectory = np.empty((dim, times.size), dtype=np.complex128)
        for l, (w, u) in enumerate(block):
            coeff = u.T @ gauged[l::k]
            table = work[: w.size]
            np.multiply(-1j, np.outer(w, times), out=table)
            np.exp(table, out=table)
            np.multiply(coeff[:, None], table, out=table)
            # Real u times complex table: one real product over (re, im) columns,
            # written straight into the sector's rows.
            np.matmul(u, table.view(np.float64), out=trajectory[l::k].view(np.float64))
        trajectory *= phase[:, None]
        blocks.append(trajectory)
    return blocks


def _check_length(params: ModelParams, spec: EvolutionSpec) -> None:
    size = spec.initial_state.size
    if size != 2 * params.dim:
        raise ShapeError(f"initial state has length {size}, expected 2*dim = {2 * params.dim}")


def _evolve(params: ModelParams, tol: float, spec_from):
    """Evolve ``spec_from(eigensystem)`` through the blocks: ``(times, states_at)``.

    ``states_at(start, stop)`` builds the physical-frame states of grid
    times start .. stop - 1 from the two block trajectories. The eigensystem
    is released before, and a caller that takes the states a block at a time
    never holds the whole (n_times, 2*dim) array.
    """
    system = sector_eigensystem(params, tol)
    spec = spec_from(system)
    signs = system.signs
    times = np.arange(spec.steps + 1, dtype=np.float64) * spec.dt
    block_top, block_bottom = _block_trajectories(system, spec.initial_state, times)
    del system
    dim = signs.size
    column = signs[:, None]

    def states_at(start: int, stop: int) -> np.ndarray:
        states = np.empty((stop - start, 2 * dim), dtype=np.complex128)
        upper, lower = states[:, :dim].T, states[:, dim:].T
        top, bottom = block_top[:, start:stop], block_bottom[:, start:stop]
        np.subtract(top, np.multiply(column, bottom, out=upper), out=upper)
        np.add(np.multiply(column, top, out=lower), bottom, out=lower)
        if start == 0:
            states[0] = spec.initial_state  # t = 0 is the input, exactly
        return states

    return times, states_at


def evolve(
    params: ModelParams,
    spec: EvolutionSpec,
    *,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a state through the decoupled blocks.

    Returns ``(times, states)`` where ``times[j] = j * dt`` and
    ``states[j]`` is the physical-frame state at ``times[j]``; row 0 is
    the initial state unchanged. The full Hamiltonian is Hermitian and the
    block conjugation is exact, so the returned states keep unit norm to
    roundoff even though the block frame rescales norms.
    """
    _check_length(params, spec)
    times, states_at = _evolve(params, tol, lambda system: spec)
    return times, states_at(0, times.size)


def _evolve_csv(params: ModelParams, tol: float, dt: float, steps: int,
                initial_state=None) -> Iterator[str]:
    """``trajectory_chunks(*evolve(...))`` without the whole state array.

    Starts from ``initial_state`` or, when it is None, from the ground state,
    taken from the same decomposition of the blocks as the evolution.
    """
    if initial_state is None:
        def spec_from(system):
            return EvolutionSpec(initial_state=_ground_state(system), dt=dt, steps=steps)
    else:
        spec = EvolutionSpec(initial_state=initial_state, dt=dt, steps=steps)
        _check_length(params, spec)

        def spec_from(system):
            return spec
    times, states_at = _evolve(params, tol, spec_from)
    return _csv_chunks(times, states_at, 2 * params.dim)


_TRAJECTORY_HEADER = "t,component_index,re,im\n"
#: Values formatted per chunk, at most: bounds the chunks' working set.
_CHUNK_VALUES = 4096
#: The words after the re and im fields of a row: "," and "\n", zero-padded.
_SEPARATORS = np.frombuffer(b",\0\0\0\n\0\0\0", dtype=np.uint32)


def trajectory_chunks(times, states) -> Iterator[str]:
    """Trajectory CSV as text chunks: the header, then blocks of whole time steps.

    Joined, the chunks are :func:`trajectory_csv`. A block of time steps (at
    most ``_CHUNK_VALUES`` values, at least one step) is laid out as a
    fixed-width matrix of uint32 words, one row per line with zero-padded
    fields, and compacted once. Floats are formatted by a vectorized kernel
    whose bytes equal ``'%.16e' % x``. Raises ShapeError unless there is one
    time per state.
    """
    states = np.ascontiguousarray(states, dtype=np.complex128)
    times = np.asarray(times, dtype=np.float64)
    if len(times) != len(states):
        raise ShapeError(f"got {len(times)} times for {len(states)} states")
    return _csv_chunks(times, lambda start, stop: states[start:stop], states.shape[-1])


def _csv_chunks(times: np.ndarray, states_at, comps: int) -> Iterator[str]:
    """Chunks of :func:`trajectory_chunks`; ``states_at(start, stop)`` gives the
    states of ``times[start:stop]``."""
    yield _TRAJECTORY_HEADER
    steps = len(times)
    if steps == 0 or comps == 0:
        return
    time_fields = format_fields(times)
    # Row: t | ",idx," zero-padded to whole words | re | "," | im | "\n".
    indices = np.array([f",{i}," for i in range(comps)], dtype=bytes)
    index_words = -(-indices.dtype.itemsize // 4)
    indices = indices.astype(f"S{4 * index_words}").view(np.uint32)
    block = min(steps, max(1, _CHUNK_VALUES // (2 * comps)))
    values_at = WORDS + index_words
    rows = np.zeros((block, comps, values_at + 2 * (WORDS + 1)), dtype=np.uint32)
    rows[:, :, WORDS:values_at] = indices.reshape(comps, index_words)
    pairs = rows[:, :, values_at:].reshape(block, comps, 2, WORDS + 1)
    pairs[:, :, :, WORDS] = _SEPARATORS
    for start in range(0, steps, block):
        n = min(block, steps - start)
        rows[:n, :, :WORDS] = time_fields[start : start + n, None, :]
        values = states_at(start, start + n).view(np.float64).reshape(n, comps, 2)
        format_fields(values, out=pairs[:n, :, :, :WORDS])
        yield rows[:n].tobytes().translate(None, b"\0").decode("ascii")


def trajectory_csv(times, states) -> str:
    """CSV text for a trajectory: header t,component_index,re,im."""
    return "".join(trajectory_chunks(times, states))
