"""Command-line front end.

Subcommands: verify, parity-table, spectrum, sweep, evolve. Output goes to
stdout unless --out FILE is given. Exit codes: 0 success, 1 verification
failure (the report's "passed" is false: relative residual, involution or
intertwining check above tolerance), 2 usage or validation error, or an
allocation refused with MemoryError. Every error path prints a single line
"error: <reason>" to stderr. A reader that closes stdout early (krabi evolve
... | head -1) is not an error: the output stops, nothing is printed, and the
exit code is the one the command would have returned, so verify still exits
1 for a failing candidate. Floats in CSV output use 17 significant digits
in scientific notation, so identical invocations produce byte-identical
output. A flag may take a negative number after a space (--g -0.1+0.2i,
--alpha -1e-3, --tol -inf). Only verify takes --tol; spectrum, sweep and
evolve verify the parity at tolerance 0. Verdicts follow the rule of the
library's verify_involution_solution. --levels and --steps are read as plain
ints and judged by the library's one check per rule (1 <= levels <= dim; at
least 2 sweep steps, at least 1 evolve step), so each error has the library's
text. spectrum solves the sector tridiagonals alone and says so on its first
line; verify --spectra compares the dense blocks with the dense full spectrum
and never runs the sector route.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from ._sectors import verify_band
from .errors import _k_dim, _number, _require_memory, _steps
from .linalg import dump_matrix, load_vector
from .model import ModelParams, build_blocks
from .parity import _floor_signs, generalized_parity_signs
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
        sub.add_argument("--levels", type=int, required=True,
                         help="lowest levels per block, 1..dim")
    sub.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="krabi", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="verify a parity candidate against the Riccati equation")
    _add_model_args(p_verify)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
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

    p_spectrum = subs.add_parser("spectrum", help="lowest levels of each decoupled block")
    _add_model_args(p_spectrum, with_levels=True)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_sweep = subs.add_parser("sweep", help="sweep |g|, alpha or omega and record block levels")
    _add_model_args(p_sweep, with_levels=True)
    p_sweep.add_argument("--param", choices=("g", "alpha", "omega"), required=True)
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_evolve = subs.add_parser("evolve", help="evolve a state through the decoupled blocks")
    _add_model_args(p_evolve)
    p_evolve.add_argument("--t-max", type=float, required=True, dest="t_max")
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--state", default="ground",
                          help='"ground" for the full ground state, or a vector file path')
    p_evolve.set_defaults(func=_cmd_evolve)

    return parser


def _emit(chunks, out: str | None) -> None:
    """Write byte chunks, as they are produced, to ``out`` or stdout.

    Both are written in binary mode, so line ends are "\n" on every platform.
    A stdout with no binary layer, such as a StringIO, is given ASCII text. A stdout
    whose reader has closed ends the output quietly; the command's exit code stands.
    """
    if out is not None:
        with open(out, "wb") as fh:
            fh.writelines(chunks)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
        return
    try:
        sys.stdout.flush()  # text written before stays first
        buffer.writelines(chunks)
        buffer.flush()
    except BrokenPipeError:
        # The reader closed early (`krabi evolve ... | head -1`): stop writing. fd 1 now
        # points at the null device, so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _params_from(args) -> ModelParams:
    return ModelParams(alpha=args.alpha, omega=args.omega, g=args.g, k=args.k, dim=args.dim)


def _cmd_verify(args) -> int:
    params = _params_from(args)
    # The sign vector, the amplitudes and the band verdict's temporaries: at most eight
    # float64 or int64 vectors of dim entries.
    _require_memory(8 * 8 * params.dim, f"verifying the parity at dim = {params.dim}")
    signs = _floor_signs({"xk": params.k, "p": 1, "t": 2}[args.candidate], params.dim)
    report = verify_band(params, signs, args.tol)
    compare = args.spectra and report.passed
    if compare or args.dump is not None:
        blocks = build_blocks(params)
        if compare:
            report.spectra_match = _spectra_match(blocks, signs)
        if args.dump is not None:
            # The dense audit of the public residual. The parity matrix, the residual's
            # temporaries and its rows of text stay within build_blocks' estimate, so no
            # step of its own is estimated.
            dump_matrix(residual(blocks, np.diag(signs.astype(np.complex128))), args.dump)
    _emit([(report.to_json() + "\n").encode("ascii")], args.out)
    return 0 if report.passed else 1


#: Rows of ``parity-table`` formatted per chunk of its output.
_TABLE_ROWS = 4096


def _parity_rows(k: int, signs: np.ndarray):
    """The parity table's ASCII bytes: the header, then chunks of ``_TABLE_ROWS`` rows."""
    yield b"p,n,l,sign\n"
    for start in range(0, signs.size, _TABLE_ROWS):
        chunk = signs[start : start + _TABLE_ROWS].tolist()
        yield "".join([f"{p},{p // k},{p % k + 1},{sign:+d}\n"
                       for p, sign in enumerate(chunk, start)]).encode("ascii")


def _cmd_parity_table(args) -> int:
    k, dim = _k_dim(args.k, args.dim)
    # The int64 sign vector, built in place, and one chunk of rows beside it: its ints,
    # its strings and their text, about 105 B a row.
    _require_memory(8 * dim + 256 * _TABLE_ROWS, f"tabulating the parity at dim = {dim}")
    signs = generalized_parity_signs(k, dim)
    if dim % k != 0:
        print(
            f"warning: k = {k} does not divide dim = {dim}; "
            "sector sizes differ by one",
            file=sys.stderr,
        )
    _emit(_parity_rows(k, signs), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    levels = sector_spectrum(_params_from(args), args.levels)
    rows = [f"{b},{i},{w:.16e}\n" for b, block in zip("+-", levels) for i, w in enumerate(block)]
    text = "".join(["# method = sector-tridiagonal\nblock,level,eigenvalue\n", *rows])
    _emit([text.encode("ascii")], args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _params_from(args)
    spec = SweepSpec(base=params, param=args.param, lo=args.lo, hi=args.hi,
                     steps=args.steps, levels=args.levels)
    rows = sweep(spec)
    _emit([sweep_csv(rows).encode("ascii")], args.out)
    return 0


def _cmd_evolve(args) -> int:
    params = _params_from(args)
    t_max = _number(args.t_max, "t-max", float, "> 0")
    steps = _steps(args.steps, 1)
    if t_max / steps == 0.0:
        raise ValueError(f"the time step --t-max / --steps = {t_max!r} / {steps} rounds to 0")
    state = None if args.state == "ground" else load_vector(args.state)
    _emit(_evolve_csv(params, t_max / steps, steps, state), args.out)
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
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size; the interpreter's own has no text.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
