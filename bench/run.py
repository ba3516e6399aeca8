"""krabi benchmark: one closed-loop client, three workloads, oracle-checked.

Run from the repository root:

    python3 bench/run.py --workload spectrum-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30     # every workload, both modes

One process runs one client that sends its next op when the previous one
returns; there are no worker threads, and BLAS is held to one thread.
Between ops it runs the workload's reference kernel (calibration.py), and
the timings it reports are rescaled by that kernel to seconds on the
reference machine, so that a shared host's changes of speed cancel out.
krabi is imported from ``src/`` next to this directory; without it the
benchmark exits with a nonzero code and prints no result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced, and prints the per-layer metrics per op.
The last line of stdout is the result object; the line before it is the
run metadata. See NOTES.md for the workloads and every metric.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one client, no BLAS worker threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_BLAS_THREADS = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The names in workloads.WORKLOADS, known before krabi is imported.
WORKLOAD_NAMES = ("spectrum-dense", "sweep-small", "evolve-csv")
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Reference-kernel seconds run after each setup sample to rescale it.
SETUP_REF_S = 0.15
#: Input pool size as a multiple of the ops the warm-up time predicts.
POOL_HEADROOM = 2.5
MAX_POOL = 20000

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer metrics: name -> (unit, span or layer, field). A layer name
#: sums its spans; "amount" is the work counted per call (tracing.AMOUNTS).
PER_LAYER = {
    **{f"{layer}.{field}": ("s" if field == "self_s" else "count", layer, field)
       for layer in ("linalg", "fock", "model", "parity", "riccati", "spectra", "cli")
       for field in ("self_s", "calls")},
    "linalg.eig_hermitian.self_s": ("s", "linalg.eig_hermitian", "self_s"),
    "linalg.eig_hermitian.calls": ("count", "linalg.eig_hermitian", "calls"),
    "linalg.eig_hermitian.elems": ("count", "linalg.eig_hermitian", "amount"),
    "linalg.load_vector.self_s": ("s", "linalg.load_vector", "self_s"),
    "riccati.verify.self_s": ("s", "riccati.verify_involution_solution", "self_s"),
    "riccati.verify.calls": ("count", "riccati.verify_involution_solution", "calls"),
    "riccati.similarity_transform.self_s": ("s", "riccati.similarity_transform", "self_s"),
    "model.build_full.calls": ("count", "model.build_full", "calls"),
    "model.build_blocks.self_s": ("s", "model.build_blocks", "self_s"),
    "parity.generalized_parity.self_s": ("s", "parity.generalized_parity", "self_s"),
    "spectra.trajectory_csv.self_s": ("s", "spectra.trajectory_csv", "self_s"),
    "spectra.out_bytes": ("B", "spectra", "amount"),
}
DIAGNOSTICS = {"check.max_dev": "tol", "trace.overhead": "ratio"}


def load_krabi() -> float:
    """Import krabi and krabi.cli from the checkout's src/; return the seconds taken."""
    if not (SRC / "krabi" / "__init__.py").is_file():
        raise SystemExit(f"error: krabi sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import krabi
    import krabi.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(krabi.__file__).resolve().parent != SRC / "krabi":
        raise SystemExit(f"error: imported krabi from {krabi.__file__}, not from {SRC}")
    return elapsed


def measure_setup(workload, seed: int, import_s: float) -> dict:
    """Setup time: import_s plus one untimed warm-up op on input 0.

    ``setup_s`` is in wall seconds; ``setup_ref_s`` is rescaled by the
    workload's reference kernel, run right after the warm-up op.
    """
    from calibration import Reference

    first = workload.make_input(seed, 0)
    t0 = time.perf_counter()
    workload.run(first)
    warmup_s = time.perf_counter() - t0
    reference = Reference(workload.kernel, workload.workdir)
    reference.units = max(1, round(SETUP_REF_S / reference.reference_s))
    setup_s = import_s + warmup_s
    return {"first": first, "warmup_s": warmup_s, "reference": reference,
            "setup_s": setup_s, "setup_ref_s": setup_s * reference.scale([reference.block()])}


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """(wall, rescaled) setup time in a fresh process, started for the purpose."""
    import_s = load_krabi()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        setup = measure_setup(WORKLOADS[name](Path(workdir)), seed, import_s)
        return setup["setup_s"], setup["setup_ref_s"]


def spawn_setup_probe(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    wall, rescaled = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(wall), float(rescaled)


def timed_loop(workload, inputs, start: int, seconds: float, reference, *, tracer=None,
               whole_cycles: bool = False) -> dict:
    """Run ops from op index ``start`` for ``seconds``, a reference block around each.

    ``durations`` are wall seconds per op; ``scaled`` are the same ops in
    reference seconds, each rescaled by the mean kernel time of the blocks
    just before and just after it.
    """
    from workloads import CYCLE

    durations, scaled, units_s, kept, errors = [], [], [], {}, []
    call = workload.run if tracer is None else (
        lambda inp: tracer.run_op(workload.run, inp))
    i = start
    t_start = time.perf_counter()
    before = reference.block()
    units_s.append(before)
    while True:
        inp = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            out = call(inp)
        except Exception as exc:  # an op that raises counts as failed; keep going
            out = None
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        after = reference.block()
        units_s.append(after)
        durations.append(t1 - t0)
        scaled.append((t1 - t0) * reference.scale((before, after)))
        before = after
        if out is not None and inp.checked:
            kept[inp.index] = (inp, out)
        i += 1
        if (time.perf_counter() - t_start >= seconds
                and not (whole_cycles and (i - start) % CYCLE)):
            break
    return {"durations": durations, "scaled": scaled, "units_s": units_s,
            "elapsed": time.perf_counter() - t_start,
            "kept": kept, "errors": errors, "end": i}


def run_checks(workload, kept: dict) -> tuple[int, float]:
    """Check kept outputs against the oracle: (failed count, max deviation / tol)."""
    failed, worst = 0, 0.0
    for inp, out in kept.values():
        try:
            dev = workload.check(inp, out)
        except (ValueError, OSError):
            dev = math.inf
        if not dev <= 1.0:
            failed += 1
        worst = max(worst, dev)
    return failed, worst


def krabi_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(args, extra: dict) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "krabi").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "krabi_commit": krabi_commit(), "krabi_src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_inherited": INHERITED_BLAS_THREADS,
        "clients": 1, "loop": "closed",
        **extra,
    }


def percentiles(durations) -> tuple[float, float]:
    import numpy as np

    p50, p90 = np.percentile(durations, [50, 90])
    return float(p50), float(p90)


def layer_metrics(totals: dict, n_ops: int) -> dict:
    """Per-op per-layer metrics from span totals over n_ops ops."""
    metrics = {}
    for name, (unit, span, field) in PER_LAYER.items():
        if "." in span:
            value = totals.get(span, {}).get(field, 0)
        else:
            value = sum(t[field] for s, t in totals.items() if s.split(".")[0] == span)
        metrics[name] = {"value": value / n_ops, "unit": unit}
    return metrics


def run_benchmark(args, import_s: float, *, workload_kwargs=None,
                  setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """One run of one workload; returns (result, metadata)."""
    from tracing import Tracer
    from workloads import CYCLE, WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](workdir, **(workload_kwargs or {}))
        setup = measure_setup(workload, args.seed, import_s)
        first, reference = setup["first"], setup["reference"]
        setups = [(setup["setup_s"], setup["setup_ref_s"])]
        if not args.trace:
            setups += [spawn_setup_probe(args.workload, args.seed)
                       for _ in range(setup_samples - 1)]
        reference.size_blocks(setup["warmup_s"])
        predicted_ops = args.seconds / max(setup["warmup_s"], 1e-4)
        pool = min(MAX_POOL, CYCLE * math.ceil(POOL_HEADROOM * predicted_ops / CYCLE + 1))
        inputs = [first] + [workload.make_input(args.seed, i) for i in range(1, pool)]

        if not args.trace:
            runs = [timed_loop(workload, inputs, 0, args.seconds, reference)]
        else:
            plain = timed_loop(workload, inputs, 0, args.seconds / 2, reference)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(workload, inputs, plain["end"], args.seconds / 2,
                                    reference, tracer=tracer, whole_cycles=True)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        kept = {idx: item for run in runs for idx, item in run["kept"].items()}
        check_failed, max_dev = run_checks(workload, kept)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for run in runs for e in run["errors"]]
    attempted = sum(len(run["durations"]) for run in runs)
    failed = len(errors) + check_failed
    durations, scaled = runs[0]["durations"], runs[0]["scaled"]
    p50, p90 = percentiles(scaled)
    wall_p50, wall_p90 = percentiles(durations)
    if not args.trace:
        values = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "op_s_p50": p50,
            "op_s_p90": p90,
            "ops_per_s": len(scaled) / math.fsum(scaled),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        n_traced = len(runs[1]["durations"])
        metrics = layer_metrics(tracer.totals(), n_traced)
        metrics["check.max_dev"] = {"value": min(max_dev, sys.float_info.max),
                                    "unit": DIAGNOSTICS["check.max_dev"]}
        metrics["trace.overhead"] = {"value": percentiles(runs[1]["scaled"])[0] / p50,
                                     "unit": DIAGNOSTICS["trace.overhead"]}
    result = {"correct": failed == 0 and len(kept) > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    meta = metadata(args, {
        "ops_timed": len(durations),
        "ops_beyond_p90": sum(d > p90 for d in scaled),
        "wall_op_s_p50": wall_p50,
        "wall_op_s_p90": wall_p90,
        "wall_ops_per_s": len(durations) / runs[0]["elapsed"],
        "reference_kernel": workload.kernel,
        "reference_units_per_block": reference.units,
        "reference_unit_s_p50": statistics.median(runs[0]["units_s"]),
        "reference_s": reference.reference_s,
        "reference_share": math.fsum(runs[0]["units_s"]) * reference.units
                           / runs[0]["elapsed"],
        "ops_traced": len(runs[1]["durations"]) if args.trace else 0,
        "input_pool": pool,
        "checked_ops": len(kept),
        "check_note": f"oracle checks a seeded subset of ops: every op with index < 4 "
                      f"and a share {workload.check_share} of the rest",
        "check_max_dev_tol": max_dev,
        "fail_ratio": failed / attempted,
        "setup_samples_s": [ref for _, ref in setups],
        "setup_samples_wall_s": [wall for wall, _ in setups],
        "errors": errors[:5],
    })
    return result, meta


def run_all(args) -> int:
    """Every workload in both modes, each in its own process; print a table."""
    from workloads import WORKLOADS

    status = 0
    print(f"{'workload':16} {'metric':38} {'value':>14}  unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name:16} failed with code {proc.returncode}: {proc.stderr.strip()}")
                status = 1
                continue
            result, meta = json.loads(lines[-1]), json.loads(lines[-2])
            status |= not result["correct"]
            rows = dict(result["metrics"])
            if not trace:
                rows["fail_ratio"] = {"value": meta["fail_ratio"], "unit": "ratio"}
            for metric, entry in rows.items():
                print(f"{name:16} {metric:38} {entry['value']:14.6g}  {entry['unit']}")
            print(f"{name:16} {'(correct, attempted, failed)':38} "
                  f"{str((result['correct'], result['attempted'], result['failed'])):>14}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced, and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if not args.all:
        result, meta = run_benchmark(args, load_krabi())
        print(json.dumps(meta))
        print(json.dumps(result))
        return 0
    load_krabi()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
