"""Reference kernels that measure the machine's speed alongside the ops.

The benchmark runs on a few cores of a shared host. Such a host switches
between a fast state and one 1.5 to 2 times slower, for seconds up to a
minute at a time, and the share of a run spent in each varies from run to
run; user time slows too, not only wall time. A median of plain wall times
then lands in one state or the other, and runs of the same code disagree
by the gap between the states.

So the timed loop runs a fixed reference kernel before and after every op,
and each op's wall time is rescaled to the reference machine:

    calibrated = wall * REFERENCE_S[kernel] / (kernel time around the op)

A calibrated time reads as seconds on the machine that defined the
benchmark (2-core Xeon at 2.0 GHz, OpenBLAS with one thread, fast state).
A change that makes krabi faster or slower moves the wall time and not
the kernel, so it moves the calibrated time by the same factor.

The host's states slow different kinds of work by different factors, so
each workload's kernel repeats the op's own kind of work on fixed inputs,
in numpy and benchmark code only (the oracle's Hamiltonian), never krabi:

- ``dense``: one 384 x 384 complex Hermitian eigendecomposition and a
  matrix product, as in a ``spectrum-dense`` op;
- ``small``: eight 32 x 32 block assemblies and eigenvalue solves and
  their CSV rows, as in a ``sweep-small`` op;
- ``trajectory``: a 64-level propagation over 21 times written as CSV to
  a file, as in an ``evolve-csv`` op.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

#: Seconds one kernel unit takes between ops on the reference machine in
#: its fast state.
REFERENCE_S = {"dense": 0.071, "small": 0.0019, "trajectory": 0.0088}
#: Kernel time between two ops, as a share of the op's time.
REF_SHARE = 0.2
#: Untimed kernel units before the first timed one.
WARMUP_UNITS = 2

_PARAMS = {"alpha": 0.8, "omega": 1.1, "g": 0.21 + 0.12j, "k": 2}


def _dense(workdir: Path) -> float:
    h = oracle.hamiltonian(dim=192, **_PARAMS)
    w, v = np.linalg.eigh(h)
    return float(w[0] + (h @ v)[0, 0].real)


def _small(workdir: Path) -> float:
    lines = ["param,block,level,eigenvalue"]
    for value in np.linspace(0.5, 1.5, 8):
        h = oracle.hamiltonian(dim=32, **{**_PARAMS, "alpha": value})
        for block, sub in (("+", h[:32, :32]), ("-", h[32:, 32:])):
            for level, w in enumerate(np.linalg.eigvalsh(sub)[:4]):
                lines.append(f"{value:.16e},{block},{level},{w:.16e}")
    return float(len("\n".join(lines)))


def _trajectory(workdir: Path) -> float:
    h = oracle.hamiltonian(dim=32, **_PARAMS)
    w, v = np.linalg.eigh(h)
    times = np.linspace(0.0, 3.0, 21)
    coeff = v.conj().T @ np.full(h.shape[0], h.shape[0] ** -0.5)
    states = (v @ (coeff[:, None] * np.exp(-1j * np.outer(w, times)))).T
    lines = ["t,component_index,re,im"]
    for t, state in zip(times, states):
        for idx, z in enumerate(state):
            lines.append(f"{t:.16e},{idx},{z.real:.16e},{z.imag:.16e}")
    out = workdir / "reference.csv"
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    return float(out.stat().st_size)


KERNELS = {"dense": _dense, "small": _small, "trajectory": _trajectory}


class Reference:
    """One workload's kernel, run in blocks of whole units."""

    def __init__(self, kernel: str, workdir: Path):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self._fn = KERNELS[kernel]
        self._workdir = workdir
        self.units = 1
        for _ in range(WARMUP_UNITS):
            self._fn(workdir)

    def size_blocks(self, op_s: float) -> None:
        """Units per block so that a block takes about REF_SHARE of an op."""
        unit_s = self.block()
        self.units = max(1, round(REF_SHARE * op_s / unit_s))

    def block(self) -> float:
        """Run one block; return the seconds per unit."""
        t0 = perf_counter()
        for _ in range(self.units):
            self._fn(self._workdir)
        return (perf_counter() - t0) / self.units

    def scale(self, units_s) -> float:
        """Factor that turns wall seconds into reference seconds."""
        return self.reference_s / statistics.fmean(units_s)
