"""Command-line front end.

Subcommands: verify, parity-table, spectrum, sweep, evolve. Output goes to
stdout unless --out FILE is given. Exit codes: 0 success, 1 verification
failure (the report's "passed" is false: relative residual, involution or
intertwining check above tolerance), 2 usage or validation error. Every
error path prints a single line "error: <reason>" to stderr. Floats in CSV
output use 17 significant digits in scientific notation, so identical
invocations produce byte-identical output. A flag may take a negative
number after a space (--g -0.1+0.2i, --alpha -1e-3, --tol -inf). Only verify
takes --tol; spectrum, sweep and evolve verify the parity at tolerance 0.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from ._sectors import real_signs, verify_band
from .errors import HermiticityError, ShapeError, SolutionError
from .linalg import dump_matrix, eig_hermitian, load_vector
from .model import ModelParams, build_blocks, build_full
from .parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from .riccati import DEFAULT_TOLERANCE, _spectra_match, residual
from .spectra import SweepSpec, _evolve_csv, sector_spectrum, sweep, sweep_csv

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>[+-]?{_FLOAT})(?:(?P<im>[+-]{_FLOAT})i)?$")


def parse_complex(text: str) -> complex:
    """Parse the coupling literal: "a", "a+bi" or "a-bi", no spaces."""
    match = _COMPLEX_RE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"malformed complex literal {text!r}; expected a, a+bi or a-bi"
        )
    re_part = float(match.group("re"))
    im_part = float(match.group("im")) if match.group("im") else 0.0
    return complex(re_part, im_part)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    # NaN fails both comparisons; an infinite tolerance would pass any candidate.
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with one-line machine-parsable errors and exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_model_args(sub, with_levels=False):
    sub.add_argument("--k", type=int, required=True, help="photons per exchange, k >= 1")
    sub.add_argument("--dim", type=int, required=True, help="boson truncation, dim >= 2*k")
    sub.add_argument("--alpha", type=float, required=True, help="qubit gap")
    sub.add_argument("--omega", type=float, required=True, help="mode frequency, > 0")
    sub.add_argument("--g", type=parse_complex, required=True,
                     help="coupling, literal a, a+bi or a-bi")
    if with_levels:
        sub.add_argument("--levels", type=_positive_int, required=True,
                         help="lowest levels per block")
    sub.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="krabi", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="verify a parity candidate against the Riccati equation")
    _add_model_args(p_verify)
    p_verify.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                          help="relative verification tolerance, finite and >= 0")
    p_verify.add_argument("--candidate", choices=("xk", "p", "t"), default="xk",
                          help="xk: generalized parity; p: bosonic parity; t: two-photon parity")
    p_verify.add_argument("--spectra", action="store_true",
                          help="also compare block spectra against the full spectrum")
    p_verify.add_argument("--dump", default=None, metavar="FILE",
                          help="dump the residual matrix to FILE (plain-text format)")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = subs.add_parser("parity-table", help="tabulate Fock index, sector level, sector, sign")
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--dim", type=int, required=True)
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=_cmd_parity_table)

    p_spectrum = subs.add_parser("spectrum", help="per-block spectra plus full-spectrum deviation")
    _add_model_args(p_spectrum, with_levels=True)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_sweep = subs.add_parser("sweep", help="sweep |g|, alpha or omega and record block levels")
    _add_model_args(p_sweep, with_levels=True)
    p_sweep.add_argument("--param", choices=("g", "alpha", "omega"), required=True)
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--steps", type=_positive_int, required=True)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker threads for grid points (output order is fixed)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_evolve = subs.add_parser("evolve", help="evolve a state through the decoupled blocks")
    _add_model_args(p_evolve)
    p_evolve.add_argument("--t-max", type=float, required=True, dest="t_max")
    p_evolve.add_argument("--steps", type=_positive_int, required=True)
    p_evolve.add_argument("--state", default="ground",
                          help='"ground" for the full ground state, or a vector file path')
    p_evolve.set_defaults(func=_cmd_evolve)

    return parser


def _emit(chunks, out: str | None) -> None:
    """Write text chunks, as they are produced, to ``out`` or stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.writelines(chunks)


def _params_from(args) -> ModelParams:
    return ModelParams(alpha=args.alpha, omega=args.omega, g=args.g, k=args.k, dim=args.dim)


def _cmd_verify(args) -> int:
    params = _params_from(args)
    if args.candidate == "xk":
        signs = generalized_parity_signs(params.k, params.dim)
    elif args.candidate == "p":
        signs = bosonic_parity_signs(params.dim)
    else:
        signs = two_photon_parity_signs(params.dim)
    report = verify_band(params, real_signs(signs), args.tol)
    compare = args.spectra and report.passed
    if compare or args.dump is not None:
        blocks, x = build_blocks(params), np.diag(signs.astype(np.complex128))
        if compare:
            report.spectra_match = _spectra_match(blocks, x)
        if args.dump is not None:
            dump_matrix(residual(blocks, x), args.dump)
    _emit([report.to_json() + "\n"], args.out)
    return 0 if report.passed else 1


def _cmd_parity_table(args) -> int:
    signs = generalized_parity_signs(args.k, args.dim)  # validates k and dim first
    if args.dim % args.k != 0:
        print(
            f"warning: k = {args.k} does not divide dim = {args.dim}; "
            "sector sizes differ by one",
            file=sys.stderr,
        )
    lines = ["p,n,l,sign"]
    for p, sign in enumerate(signs.tolist()):
        lines.append(f"{p},{p // args.k},{p % args.k + 1},{sign:+d}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_spectrum(args) -> int:
    params = _params_from(args)
    if args.levels > params.dim:
        raise ShapeError(
            f"levels must satisfy 1 <= levels <= dim = {params.dim}, got {args.levels}"
        )
    # Deviation is measured over the complete spectra, not just the
    # reported lowest levels.
    full_top, full_bottom = sector_spectrum(params, params.dim)
    w_top, w_bottom = full_top[: args.levels], full_bottom[: args.levels]
    merged = np.sort(np.concatenate([full_top, full_bottom]))
    full = eig_hermitian(build_full(params), vectors=False)[0]
    deviation = float(np.max(np.abs(merged - full)))
    lines = [f"# max_full_spectrum_deviation = {deviation:.16e}", "block,level,eigenvalue"]
    for i, w in enumerate(w_top):
        lines.append(f"+,{i},{w:.16e}")
    for i, w in enumerate(w_bottom):
        lines.append(f"-,{i},{w:.16e}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _params_from(args)
    spec = SweepSpec(base=params, param=args.param, lo=args.lo, hi=args.hi,
                     steps=args.steps, levels=args.levels)
    rows = sweep(spec, jobs=args.jobs)
    _emit([sweep_csv(rows)], args.out)
    return 0


def _cmd_evolve(args) -> int:
    params = _params_from(args)
    if not (np.isfinite(args.t_max) and args.t_max > 0):
        print(f"error: t-max must be positive and finite, got {args.t_max}", file=sys.stderr)
        return 2
    state = None if args.state == "ground" else load_vector(args.state)
    _emit(_evolve_csv(params, args.t_max / args.steps, args.steps, state), args.out)
    return 0


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return _COMPLEX_RE.match(token) is not None
    return True


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    # argparse reads "-1e-3", "-0.1+0.2i" or "-inf" after a flag as another
    # flag; "--flag=value" is unambiguous.
    merged = []
    for token in argv:
        if (merged and merged[-1].startswith("--") and "=" not in merged[-1]
                and token.startswith("-") and _is_number(token)):
            merged[-1] = f"{merged[-1]}={token}"
        else:
            merged.append(token)
    return merged


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parsing does not change it, and each build costs
    # about 1.6 ms and leaves some 370 objects in reference cycles, which pile
    # up in the oldest collector generation when run() is called in a loop.
    return build_parser()


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_numbers(argv))
    except SystemExit as exc:
        # argparse --help exits 0; our error() raises SystemExit(2).
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ShapeError, HermiticityError, SolutionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
