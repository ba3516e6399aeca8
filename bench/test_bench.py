"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import run

run.load_krabi()

import krabi  # noqa: E402
import oracle  # noqa: E402
from calibration import REFERENCE_S, Reference  # noqa: E402
from krabi.cli import parse_complex  # noqa: E402
from workloads import CYCLE, WORKLOADS, EvolveCsv, SpectrumDense, SweepSmall, complex_literal  # noqa: E402

TINY = {
    "spectrum-dense": {"dim": 16, "m": 3},
    "sweep-small": {"dim": 12, "steps": 4, "levels": 2},
    "evolve-csv": {"dim": 12, "steps": 5},
}


def test_workload_names_match():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def tiny_run(name: str, trace: int, seed: int = 7):
    args = Namespace(workload=name, seed=seed, seconds=0.2, trace=trace)
    return run.run_benchmark(args, 0.0, workload_kwargs=TINY[name], setup_samples=1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(name):
    result, meta = tiny_run(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m: e["unit"] for m, e in result["metrics"].items()} == run.END_TO_END
    assert all(e["value"] > 0 for e in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["fail_ratio"] == 0.0
    assert meta["checked_ops"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_reports_every_per_layer_metric(name):
    result, meta = tiny_run(name, trace=1)
    expected = {m: unit for m, (unit, _, _) in run.PER_LAYER.items()} | run.DIAGNOSTICS
    assert {m: e["unit"] for m, e in result["metrics"].items()} == expected
    assert result["correct"] and meta["fail_ratio"] == 0.0
    calls = result["metrics"]["cli.calls"]["value"]
    assert (calls > 0) == (name == "evolve-csv")
    assert result["metrics"]["linalg.eig_hermitian.calls"]["value"] >= 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    def counts():
        metrics = tiny_run(name, trace=1, seed=11)[0]["metrics"]
        return {m: e["value"] for m, e in metrics.items()
                if m.endswith(".calls") or m.endswith(".elems")}

    assert counts() == counts()


def test_op_times_are_rescaled_by_the_kernel_blocks_around_them(tmp_path):
    wl = SweepSmall(tmp_path, **TINY["sweep-small"])
    inputs = [wl.make_input(5, i) for i in range(CYCLE)]
    reference = Reference(wl.kernel, tmp_path)
    loop = run.timed_loop(wl, inputs, 0, 0.05, reference)
    units = loop["units_s"]
    assert len(units) == len(loop["durations"]) + 1
    for i, (wall, scaled) in enumerate(zip(loop["durations"], loop["scaled"])):
        expected = wall * REFERENCE_S[wl.kernel] / ((units[i] + units[i + 1]) / 2)
        assert scaled == pytest.approx(expected, rel=1e-12)


def test_perturbed_level_counts_as_failure(tmp_path):
    wl = SpectrumDense(tmp_path, **TINY["spectrum-dense"])
    inp = wl.make_input(3, 1)
    w_top, w_bottom = wl.run(inp)
    assert run.run_checks(wl, {1: (inp, (w_top, w_bottom))})[0] == 0
    bad = w_top.copy()
    bad[1] += 1e-6 * (w_top[-1] - w_bottom[0] + 1.0)
    failed, dev = run.run_checks(wl, {1: (inp, (bad, w_bottom))})
    assert failed == 1 and dev > 1.0


def test_perturbed_sweep_level_counts_as_failure(tmp_path):
    wl = SweepSmall(tmp_path, **TINY["sweep-small"])
    inp = wl.make_input(3, 2)
    text = wl.run(inp)
    lines = text.splitlines()
    value, block, level, w = lines[3].split(",")
    lines[3] = ",".join([value, block, level, repr(float(w) + 1e-5)])
    failed, dev = run.run_checks(wl, {2: (inp, "\n".join(lines) + "\n")})
    assert failed == 1 and dev > 1.0


@pytest.mark.parametrize("index", [0, 1], ids=["ground", "file"])
def test_perturbed_state_counts_as_failure(tmp_path, index):
    wl = EvolveCsv(tmp_path, **TINY["evolve-csv"])
    inp = wl.make_input(3, index)
    out = wl.run(inp)
    assert run.run_checks(wl, {index: (inp, out)})[0] == 0
    lines = out.read_text().splitlines()
    row = 1 + 3 * 2 * wl.dim + 5  # a component of the state at t = 3*dt
    t, idx, re_part, im_part = lines[row].split(",")
    lines[row] = ",".join([t, idx, repr(float(re_part) + 1e-6), im_part])
    out.write_text("\n".join(lines) + "\n")
    failed, dev = run.run_checks(wl, {index: (inp, out)})
    assert failed == 1 and dev > 1.0


def test_truncated_output_counts_as_failure(tmp_path):
    wl = EvolveCsv(tmp_path, **TINY["evolve-csv"])
    inp = wl.make_input(3, 1)
    out = wl.run(inp)
    out.write_text(out.read_text()[:-200])
    assert run.run_checks(wl, {1: (inp, out)})[0] == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_oracle_hamiltonian_matches_model(k):
    # The oracle is built from the formula alone; here it is held against
    # krabi's own assembly once, so that a wrong oracle cannot pass silently.
    params = {"alpha": 0.7, "omega": 1.3, "g": 0.2 - 0.1j, "k": k, "dim": 4 * k + 1}
    expected = krabi.build_full(krabi.ModelParams(**params))
    assert np.allclose(oracle.hamiltonian(**params), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("g", [0.1 + 0.2j, -0.1 + 0.2j, -0.3 - 1e-7j, 0.25 - 0.0j])
def test_complex_literal_round_trips_through_the_cli_parser(g):
    assert parse_complex(complex_literal(g)) == g


def test_exits_nonzero_without_krabi_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(Path(run.BENCH_DIR.name) / "run.py"), "--workload", "sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
