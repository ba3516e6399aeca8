"""Sector-resolved spectra, coupling sweeps and decoupled time evolution.

Everything here goes through the verified generalized parity: the full
2*dim eigenproblem splits into the two decoupled blocks, each block is
diagonalized on its own, and full-matrix diagonalization is kept only as
the oracle the results are compared against. The tests compare the sector
levels with the dense blocks and the full spectrum; ``krabi verify --spectra``
compares the dense decoupled blocks with the full spectrum.

Each model's parity is verified exactly, on the band (:mod:`krabi._sectors`).
sector_spectrum and evolution hold both blocks' 2k real tridiagonal sectors
as their band (d, e), filled into a dense stack only for the one eigensolve
call; g = 0 is solved at every k, on the band and the dense blocks. Only
sweep still solves the dense blocks, one grid point after another in grid
order, for their eigenvalues alone: it shifts the diagonals of one stacked
copy of h_plus and h_minus by +-alpha*s and builds no parity matrix. The
faster sector route grows the benchmark's speed-sized input pool past
sweep-small's memory bound, so it waits for a batched sweep. Every solve here
is one LAPACK call per model, on matrices krabi assembled exactly Hermitian,
with no check:
:func:`krabi.linalg.eig_hermitian`, with its Hermiticity check and
symmetrization, is the entry for matrices users pass.

Time evolution uses eigendecomposition rather than ODE stepping, so there
is no step-size parameter to tune: the state is rotated into the block
frame with the closed-form inverse transform, its coefficients on every
sector's eigenvectors are taken once, each picks up the exact phase
exp(-i*w*t), and the result is rotated back. States are built one span of
time steps at a time, in buffers allocated once per call, each span with
its own times, so a streamed trajectory takes memory independent of the
step count. ``krabi evolve`` streams the trajectory CSV as ASCII bytes;
:func:`trajectory_chunks` and :func:`trajectory_csv` decode them to text.
The parity is diagonal with entries +-1, so both frame changes are
elementwise sign flips on the sign vector s:

    block frame:    ((psi_u + s*psi_l) / 2, (psi_l - s*psi_u) / 2)
    physical frame: (b_u - s*b_l, s*b_u + b_l)

The transform is not unitary (it is sqrt(2) times a unitary), so
block-frame norms differ from physical norms, but the returned
physical-frame states stay normalized to roundoff.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from ._format import WORDS, Workspace, format_fields
from ._sectors import (SectorSystem, _verified_signs, fock_mask, sector_axes, sector_eigensystem,
                       sector_levels, to_sectors)
from .errors import ShapeError, _levels, _number, _require_memory, _steps
from .linalg import _array
from .model import ModelParams, _require_blocks_memory, build_blocks
from .riccati import _decoupled_levels

_SWEEPABLE = ("g", "alpha", "omega")
#: Bytes a sweep row takes, at most: its tuple and numbers, then its line in sweep_csv's
#: list, joined text and ASCII bytes; tracemalloc sees about 320.
_SWEEP_ROW_BYTES = 400


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
        lo = _number(self.lo, "lo", float, ">= 0" if self.param == "g" else "")
        hi = _number(self.hi, "hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not math.isfinite(hi - lo):  # the width of finite endpoints overflows silently
            raise ValueError(f"sweep range hi - lo must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"invalid range: lo = {lo} > hi = {hi}")
        object.__setattr__(self, "steps", _steps(self.steps, 2))
        object.__setattr__(self, "levels", _levels(self.levels, self.base.dim))
        self.params_at(lo)  # the model's own rules, omega > 0 among them

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
        state = _array(self.initial_state, "initial state", 1)
        if state.size < 2:
            raise ShapeError(f"initial state must have at least 2 components, got {state.size}")
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state must be normalized to 1, got norm {norm!r}")
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "dt", _number(self.dt, "dt", float, "> 0"))
        object.__setattr__(self, "steps", _steps(self.steps, 1))


def sector_spectrum(params: ModelParams, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``levels`` eigenvalues of each decoupled block, ascending.

    The sorted union over all levels of both blocks reproduces the
    spectrum of the full 2*dim Hamiltonian; with ``levels`` < dim the merge of
    the two returned lists still reproduces the bottom of it. The parity is
    verified on the band at tolerance 0 and each block is solved as its k
    real sector tridiagonals (:func:`krabi._sectors.sector_levels`); no dense
    matrix is built. A parity that fails raises SolutionError.
    """
    levels = _levels(levels, params.dim)
    top, bottom = sector_levels(params)
    return top[:levels].copy(), bottom[:levels].copy()


def sweep(spec: SweepSpec) -> list:
    """Evaluate a sweep; rows are (value, block, level, eigenvalue).

    Grid order, then block "+" before "-", then level index. The parity is
    verified on the band at each point, as in :func:`sector_spectrum`; the
    two dense blocks, assembled exactly Hermitian and shifted by +-alpha*s on
    one stacked copy, are then solved in one call, for eigenvalues only.
    The size guard checks the dense blocks, then the grid and the rows with
    the :func:`sweep_csv` text of them, before the first point.
    """
    _require_blocks_memory(spec.base.dim)  # before the first point's band
    _require_memory(spec.steps * (8 + 2 * spec.levels * _SWEEP_ROW_BYTES),
                    f"recording {2 * spec.levels} levels at {spec.steps} grid points")
    rows = []
    for value in np.linspace(spec.lo, spec.hi, spec.steps):
        value = float(value)
        params = spec.params_at(value)
        signs = _verified_signs(params)  # the band's verdict, before any dense matrix
        # Dense on purpose: on sweep-small (2 cores, numpy 2.4.6) the sector route took
        # op_s_p50 from about 0.0104 s to 0.0058 s, but grew the speed-sized input pool
        # enough to lift the median peak_rss_mb by 7.4%, past its 5% bound.
        levels = _decoupled_levels(build_blocks(params), signs)
        for block, lowest in zip("+-", levels[:, : spec.levels].tolist()):
            rows += [(value, block, i, w) for i, w in enumerate(lowest)]
    return rows


def sweep_csv(rows) -> str:
    """CSV text for sweep rows: header param,block,level,eigenvalue."""
    lines = ["param,block,level,eigenvalue"]
    for value, block, level, w in rows:
        lines.append(f"{value:.16e},{block},{level},{w:.16e}")
    return "\n".join(lines) + "\n"


def _ground_state(system: SectorSystem) -> np.ndarray:
    signs, phase, w, u = system
    # Equal lowest levels go to the top block (b = 0), then to the lowest sector.
    block, l = np.unravel_index(np.argmin(w[:, :, 0]), w.shape[:2])
    v = np.zeros(w[0].size, dtype=np.complex128)
    sector_axes(v, w.shape[1])[l] = u[block, l, :, 0]
    v = v[: signs.size] * phase
    state = np.concatenate([v, signs * v] if block == 0 else [-signs * v, v])
    return state / np.sqrt(2.0)


def ground_state(params: ModelParams) -> np.ndarray:
    """Normalized ground state of the full 2*dim Hamiltonian, from the blocks.

    The lowest eigenpair of the two decoupled blocks is the ground state:
    an eigenvector u of the top block maps to [u; s*u] / sqrt(2), one of the
    bottom block to [-s*u; u] / sqrt(2). The parity is verified on the band
    at tolerance 0 and all sectors are solved in one call; ties go to the
    top block, then to the lowest sector.
    """
    return _ground_state(sector_eigensystem(params))


def _check_length(params: ModelParams, spec: EvolutionSpec) -> None:
    size = spec.initial_state.size
    if size != 2 * params.dim:
        raise ShapeError(f"initial state has length {size}, expected 2*dim = {2 * params.dim}")


def _propagator(system: SectorSystem, state: np.ndarray, dt: float, steps: int):
    """Spans ``(times, states)``, in order, of the physical-frame states at t_j = j*dt, j <= steps.

    Every sector keeps its eigenpairs (w, u) and the coefficients
    c = u.T @ to_sectors(conj(D) * b) of the block-frame state b; a block's
    trajectory is D * (u @ (c * exp(-i w t))), taken for all 2k sectors at
    once. Row 0 is ``state`` exactly. Raises ValueError here, before any span
    is asked for, unless every phase w*t up to t = steps*dt is finite.

    A span holds at most ``_steps_per(2*dim)[1]`` steps. Its phase table and
    sector trajectory are built in two buffers allocated here, once, for a
    whole span (a shorter span uses the start of each), and its states are
    written over the spent table. So each span's states are overwritten by
    the next span.
    """
    signs, phase, w, u = system
    dim, k = signs.size, w.shape[1]
    # A pad's coefficient is 0; its level is set to 0 so that it adds exact zeros.
    levels = np.where(fock_mask(k, dim), w, 0.0)
    largest = float(np.max(np.abs(levels)))
    if not math.isfinite(largest * (steps * dt)):
        raise ValueError(f"the phase w*t overflows float64: |w| reaches {largest:.3e} "
                         f"and t reaches {steps * dt:.3e}")
    upper, lower = state[:dim], state[dim:]
    frames = np.conj(phase) * np.stack(((upper + signs * lower) / 2, (lower - signs * upper) / 2))
    v = to_sectors(frames, k)
    c = np.empty(v.shape + (1,), dtype=np.complex128)
    # u.T as a C-ordered complex copy, one sector at a time: a real product over (re, im)
    # columns sums in another order, which changes the last bits of c.
    for sector in np.ndindex(v.shape[:-1]):
        c[sector] = np.ascontiguousarray(u[sector].T, dtype=np.complex128) @ v[sector][:, None]
    column = signs[:, None]

    span = min(_steps_per(2 * dim)[1], steps + 1)
    # A step of the table, and of the trajectory, holds a value for each of the
    # 2*k*n sector levels; a state's 2*dim components fit in the same room.
    buffers = np.empty((2, levels.size * span), dtype=np.complex128)

    def spans():
        for start in range(0, steps + 1, span):
            times = np.arange(start, min(start + span, steps + 1), dtype=np.float64) * dt
            table, trajectory = buffers[:, : levels.size * times.size]
            table = table.reshape(levels.shape + times.shape)
            trajectory = trajectory.reshape(2, -1, times.size)
            # The phase table, then c * table (table * c rounds differently), in one buffer.
            np.multiply(-1j, levels[..., None] * times, out=table)
            np.exp(table, out=table)
            np.multiply(c, table, out=table)
            # Real u times complex table: one real product over (re, im) columns,
            # written straight into each sector's rows.
            np.matmul(u, table.view(np.float64),
                      out=sector_axes(trajectory, k, axis=1).view(np.float64))
            top, bottom = trajectory[:, :dim]
            trajectory[:, :dim] *= phase[:, None]
            states = table.reshape(-1)[: 2 * dim * times.size].reshape(times.size, 2 * dim)
            upper, lower = states[:, :dim].T, states[:, dim:].T
            np.subtract(top, np.multiply(column, bottom, out=upper), out=upper)
            np.add(np.multiply(column, top, out=lower), bottom, out=lower)
            if start == 0:
                states[0] = state  # t = 0 is the input, exactly
            yield times, states

    return spans()


def evolve(params: ModelParams, spec: EvolutionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a state through the decoupled blocks.

    Returns ``(times, states)`` where ``times[j] = j * dt`` and
    ``states[j]`` is the physical-frame state at ``times[j]``; row 0 is
    the initial state unchanged. The parity is verified on the band at
    tolerance 0. The full Hamiltonian is Hermitian and the block
    conjugation is exact, so the returned states keep unit norm to roundoff
    even though the block frame rescales norms.
    """
    _check_length(params, spec)
    comps = 2 * params.dim
    span, n = _steps_per(comps)[1], -(-params.dim // params.k)
    # The states, six span-sized buffers, and one sector's eigenvectors taken as complex.
    _require_memory(16 * comps * (spec.steps + 1 + 6 * span) + 16 * n * n,
                    f"evolving {spec.steps + 1} states of {comps} components")
    spans = _propagator(sector_eigensystem(params), spec.initial_state, spec.dt, spec.steps)
    times = np.empty(spec.steps + 1, dtype=np.float64)
    states = np.empty((times.size, comps), dtype=np.complex128)
    for start, (span_times, span_states) in zip(range(0, times.size, span), spans):
        times[start : start + span], states[start : start + span] = span_times, span_states
    return times, states


def _evolve_csv(params: ModelParams, dt: float, steps: int, initial_state=None) -> Iterator[bytes]:
    """``trajectory_chunks(*evolve(...))`` as ASCII bytes, propagating one span at a time.

    Starts from ``initial_state`` or, when it is None, from the ground state,
    taken from the same sector eigensystem as the evolution.
    """
    if initial_state is not None:
        spec = EvolutionSpec(initial_state=initial_state, dt=dt, steps=steps)
        _check_length(params, spec)
    system = sector_eigensystem(params)
    if initial_state is None:
        spec = EvolutionSpec(initial_state=_ground_state(system), dt=dt, steps=steps)
    return _csv_chunks(_propagator(system, spec.initial_state, spec.dt, steps), 2 * params.dim)


_TRAJECTORY_HEADER = b"t,component_index,re,im\n"
#: Values formatted per chunk, at most: bounds the chunks' working set.
_CHUNK_VALUES = 4096
#: Complex values propagated per span of whole chunks, about: bounds evolve's working set.
_SPAN_VALUES = 16384
#: The words after the re and im fields of a row: "," and "\n", zero-padded.
_SEPARATORS = np.frombuffer(b",\0\0\0\n\0\0\0", dtype=np.uint32)


def trajectory_chunks(times, states) -> Iterator[str]:
    """Trajectory CSV as text chunks: the header, then blocks of whole time steps.

    Joined, the chunks are :func:`trajectory_csv`. A block of time steps (at
    most ``_CHUNK_VALUES`` values, at least one step) is laid out as a
    fixed-width matrix of uint32 words, one row per line with zero-padded
    fields, and compacted once into ASCII bytes, which are decoded here.
    Floats are formatted by a vectorized kernel whose bytes equal
    ``'%.16e' % x``. Raises ShapeError unless ``times`` is 1-D and ``states``
    a 2-D (times x components) array with one row per time.
    """
    states = np.ascontiguousarray(states, dtype=np.complex128)
    times = np.asarray(times, dtype=np.float64)
    if states.ndim != 2 or times.shape != states.shape[:1]:
        raise ShapeError(f"got times of shape {times.shape} for states of shape {states.shape}")
    span = _steps_per(max(states.shape[-1], 1))[1]  # no components: no rows, any span
    spans = ((times[i : i + span], states[i : i + span]) for i in range(0, times.size, span))
    return (chunk.decode("ascii") for chunk in _csv_chunks(spans, states.shape[-1]))


def _steps_per(comps: int) -> tuple[int, int]:
    """Time steps of ``comps`` components per CSV chunk and per span of whole chunks."""
    chunk = max(1, _CHUNK_VALUES // (2 * comps))
    return chunk, chunk * max(1, _SPAN_VALUES // (chunk * comps))


def _csv_chunks(spans, comps: int) -> Iterator[bytes]:
    """Chunks of :func:`trajectory_chunks` as ASCII bytes, from ``(times, states)`` spans.

    The row buffer and the kernel's work arrays are allocated once per call, sized by the
    first span (every caller's longest), and the kernel writes each chunk's fields straight
    into the rows' field slots.
    """
    yield _TRAJECTORY_HEADER
    spans = iter(spans)
    first = next(spans, None) if comps else None
    if first is None:
        return
    # Row: t | ",idx," zero-padded to whole words | re | "," | im | "\n".
    indices = np.array([f",{i}," for i in range(comps)], dtype=bytes)
    index_words = -(-indices.dtype.itemsize // 4)
    indices = indices.astype(f"S{4 * index_words}").view(np.uint32)
    block = min(first[0].size, _steps_per(comps)[0])
    values_at = WORDS + index_words
    rows = np.zeros((block, comps, values_at + 2 * (WORDS + 1)), dtype=np.uint32)
    rows[:, :, WORDS:values_at] = indices.reshape(comps, index_words)
    pairs = rows[:, :, values_at:].reshape(block, comps, 2, WORDS + 1)
    pairs[:, :, :, WORDS] = _SEPARATORS
    work = Workspace(max(block * comps * 2, first[0].size))
    for times, states in chain([first], spans):
        time_fields = format_fields(times, work=work)
        values = states.view(np.float64).reshape(times.size, comps, 2)
        for start in range(0, times.size, block):
            n = min(block, times.size - start)
            rows[:n, :, :WORDS] = time_fields[start : start + n, None, :]
            format_fields(values[start : start + n], out=pairs[:n, :, :, :WORDS], work=work)
            yield rows[:n].tobytes().translate(None, b"\0")


def trajectory_csv(times, states) -> str:
    """CSV text for a trajectory: header t,component_index,re,im."""
    return "".join(trajectory_chunks(times, states))
