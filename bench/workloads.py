"""The three benchmark workloads: seeded inputs, one op each, oracle check.

Each op draws alpha, omega and a coupling g with |g| <= 0.3 and a random
phase from ``numpy.random.default_rng([seed, index])``, and cycles k
through 1..4 by its index, so an input depends only on the seed and the
op index. Every call into krabi goes through a module attribute
(``spectra.sector_spectrum``, ``cli.run``) so that the traced run sees the
wrapped functions.

An op is checked against the oracle when its index is below 4 (one op per
k) or when its seeded draw falls below the workload's ``check_share``;
checking every op would take longer than running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from krabi import cli, model, spectra

import oracle

#: Ops with index below this are always checked: one for each k.
ALWAYS_CHECKED = 4
#: Inputs repeat with this period (k by 4, sweep parameter by 3, evolve
#: state kind by 2); a traced run covers whole periods so its per-op
#: counts do not depend on where it stopped.
CYCLE = 12


class OpFailed(RuntimeError):
    """The program reported failure for an op without raising."""


@dataclass(frozen=True)
class Input:
    index: int
    checked: bool
    params: dict
    extra: dict


def _draw_params(rng: np.random.Generator, index: int, dim: int) -> dict:
    return {
        "alpha": float(rng.uniform(0.2, 1.5)),
        "omega": float(rng.uniform(0.5, 2.0)),
        "g": complex(rng.uniform(0.02, 0.3) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))),
        "k": index % 4 + 1,
        "dim": dim,
    }


def complex_literal(g: complex) -> str:
    """CLI coupling literal a+bi / a-bi that round-trips the floats exactly."""
    sign = "+" if math.copysign(1.0, g.imag) > 0 else ""
    return f"{g.real!r}{sign}{g.imag!r}i"


def write_vector(v: np.ndarray, path: Path) -> None:
    """Write a vector in krabi's documented vector-file format."""
    lines = [str(v.size)] + [f"{z.real:.16e} {z.imag:.16e}" for z in v]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class Workload:
    name: str
    why: str
    check_share: float
    #: The calibration kernel that does this workload's kind of work.
    kernel: str

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def make_input(self, seed: int, index: int) -> Input:
        rng = np.random.default_rng([seed, index])
        checked = index < ALWAYS_CHECKED or bool(rng.random() < self.check_share)
        return self._input(rng, index, checked)

    def _input(self, rng, index, checked) -> Input:
        raise NotImplementedError

    def run(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, output) -> float:
        """Largest deviation from the oracle as a share of its tolerance."""
        raise NotImplementedError


class SpectrumDense(Workload):
    name = "spectrum-dense"
    kernel = "dense"
    why = ("one large dense eigenproblem per op (sector_spectrum, m=5, dim 384); "
           "where a sector-tridiagonal or select-m solver shows")
    check_share = 0.06

    def __init__(self, workdir: Path, dim: int = 384, m: int = 5):
        super().__init__(workdir)
        self.dim, self.m = dim, m

    def _input(self, rng, index, checked):
        return Input(index, checked, _draw_params(rng, index, self.dim), {})

    def run(self, inp):
        return spectra.sector_spectrum(model.ModelParams(**inp.params), self.m)

    def check(self, inp, output):
        w_top, w_bottom = output
        return oracle.levels_deviation(w_top, w_bottom, self.m, oracle.levels(**inp.params))


class SweepSmall(Workload):
    name = "sweep-small"
    kernel = "small"
    why = ("32-point sweeps plus CSV at dim 32: many tiny problems, where per-call "
           "Python overhead dominates and a batched sweep shows")
    check_share = 0.03
    params_cycle = ("g", "alpha", "omega")

    def __init__(self, workdir: Path, dim: int = 32, steps: int = 32, levels: int = 4):
        super().__init__(workdir)
        self.dim, self.steps, self.levels = dim, steps, levels

    def _input(self, rng, index, checked):
        params = _draw_params(rng, index, self.dim)
        param = self.params_cycle[index % 3]
        if param == "g":
            lo, hi = 0.0, abs(params["g"])
        else:
            lo = float(rng.uniform(0.1, 0.6) if param == "alpha" else rng.uniform(0.5, 1.0))
            hi = lo + float(rng.uniform(0.3, 1.0))
        return Input(index, checked, params, {"param": param, "lo": lo, "hi": hi})

    def run(self, inp):
        spec = spectra.SweepSpec(base=model.ModelParams(**inp.params), steps=self.steps,
                                 levels=self.levels, **inp.extra)
        return spectra.sweep_csv(spectra.sweep(spec))

    def check(self, inp, output):
        return oracle.sweep_deviation(output, inp.params, steps=self.steps, m=self.levels,
                                      **inp.extra)


class EvolveCsv(Workload):
    name = "evolve-csv"
    kernel = "trajectory"
    why = ("krabi evolve through cli.run at dim 128, 200 steps, ~3.8 MB CSV per op; "
           "needs every eigenpair and is dominated by trajectory_csv")
    check_share = 0.1

    def __init__(self, workdir: Path, dim: int = 128, steps: int = 200):
        super().__init__(workdir)
        self.dim, self.steps = dim, steps

    def _input(self, rng, index, checked):
        params = _draw_params(rng, index, self.dim)
        t_max = float(rng.uniform(1.0, 5.0))
        initial = None
        state = "ground"
        if index % 2:
            v = rng.normal(size=2 * self.dim) + 1j * rng.normal(size=2 * self.dim)
            initial = v / np.linalg.norm(v)
            state = str(self.workdir / f"state_{index}.txt")
            write_vector(initial, Path(state))
        # Checked ops keep their own output file until the check reads it.
        out = self.workdir / (f"out_{index}.csv" if checked else "out.csv")
        argv = [
            "evolve", "--k", str(params["k"]), "--dim", str(self.dim),
            f"--alpha={params['alpha']!r}", f"--omega={params['omega']!r}",
            # The '=' form: argparse takes "-0.1+0.2i" after a space for a flag.
            f"--g={complex_literal(params['g'])}",
            f"--t-max={t_max!r}", "--steps", str(self.steps),
            "--state", state, "--out", str(out),
        ]
        return Input(index, checked, params,
                     {"t_max": t_max, "initial": initial, "argv": argv, "out": out})

    def run(self, inp):
        code = cli.run(inp.extra["argv"])
        if code != 0:
            raise OpFailed(f"krabi evolve exited with code {code}")
        return inp.extra["out"]

    def check(self, inp, output):
        text = Path(output).read_text(encoding="ascii")
        return oracle.trajectory_deviation(text, inp.params, inp.extra["t_max"], self.steps,
                                           inp.extra["initial"])


WORKLOADS = {w.name: w for w in (SpectrumDense, SweepSmall, EvolveCsv)}
