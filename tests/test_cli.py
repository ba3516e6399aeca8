"""CLI contract: subcommands, exit codes, error lines, byte determinism."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import krabi
from krabi import _sectors, cli, linalg, model, riccati
from krabi._sectors import verify_band
from krabi.cli import parse_complex, run
from krabi.linalg import dump_matrix, dump_vector, eig_hermitian, load_matrix
from krabi.model import ModelParams, build_blocks, build_full
from krabi.parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from krabi.riccati import VerificationReport, block_diagonalize
from krabi import spectra
from krabi.spectra import (EvolutionSpec, SweepSpec, evolve, ground_state, sector_spectrum,
                           trajectory_csv)
from _oracle import decompose
from test_linalg import MALFORMED

MODEL = ["--k", "2", "--dim", "12", "--alpha", "1", "--omega", "1", "--g", "0.5"]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spectrum_text(params, levels):
    """What `krabi spectrum` prints: its method line, the header, then the rows of
    sector_spectrum, block "+" first."""
    rows = [f"{b},{i},{w:.16e}" for b, block in zip("+-", sector_spectrum(params, levels))
            for i, w in enumerate(block)]
    return "\n".join(["# method = sector-tridiagonal", "block,level,eigenvalue", *rows]) + "\n"


class TestComplexLiteral:
    @pytest.mark.parametrize("text,value", [
        ("1", 1 + 0j),
        ("-0.5", -0.5 + 0j),
        ("2+3i", 2 + 3j),
        ("2.0-0.5i", 2 - 0.5j),
        ("-1e-3+2.5e2i", complex(-1e-3, 2.5e2)),
        (".5+.25i", 0.5 + 0.25j),
    ])
    def test_valid_literals(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "i", "1+i", "1+2j", "1 + 2i", "abc", "2i", "1+2i3"])
    def test_malformed_literals(self, text):
        with pytest.raises(Exception):
            parse_complex(text)

    @given(re=st.floats(allow_nan=False, allow_infinity=False, width=64),
           im=st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_roundtrip(self, re, im):
        literal = f"{re:.17g}{im:+.17g}i"
        parsed = parse_complex(literal)
        assert parsed.real == float(f"{re:.17g}")
        assert parsed.imag == float(f"{im:+.17g}")


class TestVerify:
    def test_generalized_parity_passes(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--k", "3", "--dim", "24", "--alpha", "1",
                                       "--omega", "1", "--g", "0.2"])
        assert code == 0
        report = json.loads(out)
        assert report["relative_residual"] < 1e-12
        assert report["is_involution"] and report["intertwines"]
        assert report["params"]["k"] == 3

    def test_bosonic_candidate_even_k_fails(self, capsys):
        code, out, _ = invoke(capsys, ["verify", *MODEL, "--candidate", "p"])
        assert code == 1
        report = json.loads(out)
        assert report["relative_residual"] >= 1e-3

    def test_bosonic_candidate_odd_k_passes(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--k", "3", "--dim", "18", "--alpha", "1",
                                       "--omega", "1", "--g", "0.5", "--candidate", "p"])
        assert code == 0

    def test_spectra_flag(self, capsys):
        code, out, _ = invoke(capsys, ["verify", *MODEL, "--spectra"])
        assert code == 0
        assert json.loads(out)["spectra_match"] <= 1e-10

    def test_dump_residual(self, capsys, tmp_path):
        # The generalized parity's residual alpha*(x^2 - I) + (x h_plus - h_minus x) is
        # exactly 0, and its file survives load_matrix and dump_matrix byte for byte.
        path, again = tmp_path / "residual.txt", tmp_path / "again.txt"
        code, _, _ = invoke(capsys, ["verify", *MODEL, "--dump", str(path)])
        assert code == 0
        res = load_matrix(path)
        assert res.shape == (12, 12) and not res.any()
        dump_matrix(res, again)
        assert again.read_bytes() == path.read_bytes()

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        code, out, _ = invoke(capsys, ["verify", *MODEL, "--out", path])
        assert code == 0 and out == ""
        assert json.loads((tmp_path / "report.json").read_text())["is_involution"] is True

    def test_report_carries_defects_and_verdict(self, capsys):
        code, out, _ = invoke(capsys, ["verify", *MODEL, "--candidate", "p"])
        report = json.loads(out)
        assert code == 1 and report["passed"] is False
        assert report["involution_defect"] <= 1e-12
        assert report["intertwining_defect"] > 1e-3

    def test_exit_code_follows_passed_not_residual(self, capsys, monkeypatch):
        def not_an_involution(params, signs, tol):
            return VerificationReport(
                residual_norm=0.0, relative_residual=0.0, involution_defect=1.0,
                intertwining_defect=0.0, is_involution=False, intertwines=True,
                tolerance=tol, params=params)

        monkeypatch.setattr(cli, "verify_band", not_an_involution)
        code, out, _ = invoke(capsys, ["verify", *MODEL])
        report = json.loads(out)
        assert report["relative_residual"] == 0.0 and report["is_involution"] is False
        assert report["params"]["dim"] == 12
        assert code == 1


    @pytest.mark.parametrize("k,candidate,expected", [
        (1, "xk", 0), (2, "xk", 0), (3, "xk", 0), (4, "xk", 0), (2, "p", 1), (3, "t", 1)])
    def test_zero_tolerance_verdict_comes_from_the_band(self, capsys, k, candidate, expected):
        # The dense residual of the generalized parity is at roundoff, the band's is zero.
        code, out, _ = invoke(capsys, ["verify", "--k", str(k), "--dim", "16", "--alpha", "0.7",
                                       "--omega", "1", "--g=0.3+0.1i", "--tol", "0",
                                       "--candidate", candidate])
        report = json.loads(out)
        assert code == expected and report["passed"] is (expected == 0)
        if expected == 0:
            assert report["residual_norm"] == 0.0

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("candidate", ["xk", "p", "t"])
    def test_exit_code_follows_the_family_rule(self, capsys, k, candidate):
        # Each candidate is (-1)^(p // j), j = k, 1 or 2: it passes exactly when j divides k
        # and k/j is odd.
        j = {"xk": k, "p": 1, "t": 2}[candidate]
        solves = k % j == 0 and (k // j) % 2 == 1
        code, out, _ = invoke(capsys, ["verify", "--k", str(k), "--dim", "24", "--alpha", "0.7",
                                       "--omega", "1", "--g", "0.3+0.1i",
                                       "--candidate", candidate])
        assert code == (0 if solves else 1) and json.loads(out)["passed"] is solves

    @pytest.mark.parametrize("extra", [[], ["--candidate", "p", "--spectra"]])
    def test_builds_no_dense_matrix_without_dump_or_passing_spectra(self, capsys, monkeypatch,
                                                                    extra):
        expected = invoke(capsys, ["verify", *MODEL, *extra])

        def dense(*_args, **_kwargs):
            raise AssertionError("dense matrix built during krabi verify")

        monkeypatch.setattr(cli, "build_blocks", dense)
        assert invoke(capsys, ["verify", *MODEL, *extra]) == expected
        assert json.loads(expected[1])["spectra_match"] is None

class TestParityTable:
    def test_alternating_signs(self, capsys):
        code, out, _ = invoke(capsys, ["parity-table", "--k", "1", "--dim", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,n,l,sign"
        assert [line.split(",")[3] for line in lines[1:]] == ["+1", "-1", "+1", "-1"]

    def test_two_photon_table(self, capsys):
        code, out, _ = invoke(capsys, ["parity-table", "--k", "2", "--dim", "6"])
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,1,+1", "1,0,2,+1", "2,1,1,-1",
                                        "3,1,2,-1", "4,2,1,+1", "5,2,2,+1"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sign_column_is_the_generalized_parity(self, capsys, k):
        for dim in (2 * k, 2 * k + 1, 37):
            code, out, _ = invoke(capsys, ["parity-table", "--k", str(k), "--dim", str(dim)])
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            signs = generalized_parity_signs(k, dim)
            assert [int(row[3]) for row in rows] == signs.tolist()
            # The table as the sector decomposition defines it: sign (-1)^n of level n.
            sd = decompose(k, dim)
            expected = ["p,n,l,sign"]
            for p in range(dim):
                n, l = sd.sector_of(p)
                expected.append(f"{p},{n},{l},{(-1) ** n:+d}")
            assert out == "\n".join(expected) + "\n"

    def test_warns_when_k_does_not_divide_dim(self, capsys):
        code, _, err = invoke(capsys, ["parity-table", "--k", "2", "--dim", "7"])
        assert code == 0
        assert err.startswith("warning:")

    def test_streamed_chunks_join_to_the_whole_table(self, capsys, tmp_path):
        # 10001 rows take three chunks of rows, and k = 3 does not divide 10001.
        k, dim = 3, 10001
        lines = ["p,n,l,sign"]
        for p, sign in enumerate(generalized_parity_signs(k, dim).tolist()):
            lines.append(f"{p},{p // k},{p % k + 1},{sign:+d}")
        table = "\n".join(lines) + "\n"
        argv = ["parity-table", "--k", str(k), "--dim", str(dim)]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (0, table) and err.startswith("warning:")
        path = tmp_path / "table.csv"
        assert invoke(capsys, [*argv, "--out", str(path)])[:2] == (0, "")
        assert path.read_bytes() == table.encode("ascii")


class TestSpectrumAndSweep:
    def test_spectrum_output(self, capsys):
        # The README example: a method comment line, the header, then each block's lowest
        # levels from the sector core. TestValuesOnly::test_spectrum covers k = 1...4.
        code, out, err = invoke(capsys, ["spectrum", "--k", "2", "--dim", "64", "--alpha", "0.8",
                                         "--omega", "1", "--g", "0.24+0.18i", "--levels", "5"])
        assert (code, err) == (0, "")
        params = ModelParams(alpha=0.8, omega=1.0, g=0.24 + 0.18j, k=2, dim=64)
        assert out == spectrum_text(params, 5)

    def test_spectrum_bytes_match_separate_lowest_levels(self, capsys):
        # The rows are the lowest levels of the complete block spectra, to the last digit.
        levels = 4
        code, out, _ = invoke(capsys, ["spectrum", *MODEL, "--levels", str(levels)])
        assert code == 0
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=2, dim=12)
        complete = sector_spectrum(params, params.dim)
        expected = ["# method = sector-tridiagonal", "block,level,eigenvalue"]
        expected += [f"{b},{i},{w:.16e}" for b, w_all in zip("+-", complete)
                     for i, w in enumerate(w_all[:levels])]
        assert out == "\n".join(expected) + "\n"

    def test_spectrum_too_many_levels(self, capsys):
        code, _, err = invoke(capsys, ["spectrum", *MODEL, "--levels", "13"])
        assert code == 2
        assert err.startswith("error:") and "levels" in err

    def test_sweep_deterministic_bytes(self, capsys):
        argv = ["sweep", *MODEL, "--param", "g", "--lo", "0", "--hi", "0.4",
                "--steps", "3", "--levels", "2"]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second
        assert first.splitlines()[0] == "param,block,level,eigenvalue"
        assert len(first.splitlines()) == 1 + 3 * 2 * 2

    def test_sweep_rows_match_sector_spectrum(self, capsys):
        argv = ["sweep", "--k", "3", "--dim", "25", "--alpha=0.6", "--omega=1", "--g=0.1-0.2i",
                "--param", "g", "--lo", "0", "--hi", "0.3", "--steps", "4", "--levels", "3"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        spec = SweepSpec(base=ModelParams(alpha=0.6, omega=1.0, g=0.1 - 0.2j, k=3, dim=25),
                         param="g", lo=0.0, hi=0.3, steps=4, levels=3)
        values = sorted({float(row[0]) for row in rows})
        assert values == np.linspace(0.0, 0.3, 4).tolist()
        for value in values:
            levels = dict(zip("+-", sector_spectrum(spec.params_at(value), 3)))
            scale = max(np.max(np.abs(w)) for w in levels.values())
            point = [row for row in rows if float(row[0]) == value]
            assert len(point) == 6
            for _, block, level, w in point:
                assert abs(float(w) - levels[block][int(level)]) <= 1e-12 * scale

    def test_sweep_has_no_jobs_flag(self, capsys):
        argv = ["sweep", *MODEL, "--param", "g", "--lo", "0", "--hi", "0.4", "--steps", "3",
                "--levels", "2", "--jobs", "2"]
        assert invoke(capsys, argv) == (2, "", "error: unrecognized arguments: --jobs 2\n")

    def test_sweep_invalid_range(self, capsys):
        code, _, err = invoke(capsys, ["sweep", *MODEL, "--param", "g", "--lo", "1",
                                       "--hi", "0", "--steps", "3", "--levels", "2"])
        assert code == 2
        assert err.startswith("error:")

    def test_sweep_range_overflowing_float64_is_one_error_line(self, capsys):
        argv = ["sweep", "--k", "1", "--dim", "8", "--alpha", "0.4", "--omega", "1", "--g", "0.1",
                "--param", "alpha", "--lo", "-1.7e308", "--hi", "1.7e308", "--steps", "3",
                "--levels", "2"]
        assert invoke(capsys, argv) == (2, "", "error: sweep range hi - lo must be finite, "
                                        "got [-1.7e+308, 1.7e+308]\n")


class TestEvolve:
    ARGS = ["evolve", "--k", "1", "--dim", "6", "--alpha", "0.4", "--omega", "1",
            "--g", "0.3", "--t-max", "1.0", "--steps", "4"]

    def test_ground_state_trajectory(self, capsys):
        code, out, _ = invoke(capsys, self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,component_index,re,im"
        assert len(lines) == 1 + 5 * 12
        # Ground state only picks up a phase: per-time norms stay 1.
        rows = [line.split(",") for line in lines[1:]]
        by_time = {}
        for t, _, re, im in rows:
            by_time.setdefault(t, 0.0)
            by_time[t] += float(re) ** 2 + float(im) ** 2
        for total in by_time.values():
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "state.txt"
        entries = ["12"] + ["1.0 0.0"] + ["0.0 0.0"] * 11
        path.write_text("\n".join(entries) + "\n")
        code, out, _ = invoke(capsys, self.ARGS[:-4] + ["--t-max", "0.5", "--steps", "2",
                                                        "--state", str(path)])
        assert code == 0
        first_row = out.splitlines()[1].split(",")
        assert float(first_row[2]) == 1.0 and float(first_row[3]) == 0.0

    def test_row_zero_is_the_state_file_text(self, capsys, tmp_path):
        state = np.random.default_rng(12).normal(size=(12, 2))
        state[::3, 0] = state[1::3, 1] = -0.0
        state[2] = [1e-310, -0.0]  # a subnormal, after the division too
        state = (state / np.linalg.norm(state)).view(np.complex128).ravel()
        path = tmp_path / "state.txt"
        dump_vector(state, path)
        code, out, _ = invoke(capsys, self.ARGS[:-4] + ["--t-max", "0.5", "--steps", "2",
                                                        "--state", str(path)])
        assert code == 0
        row_zero = out.splitlines()[1:13]
        assert row_zero == [f"0.0000000000000000e+00,{i},{line.replace(' ', ',')}"
                            for i, line in enumerate(path.read_text().splitlines()[1:])]
        assert "-0.0000000000000000e+00" in row_zero[0]

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_state_file_is_one_error_line(self, capsys, tmp_path, case):
        path = tmp_path / "state.txt"
        path.write_bytes(MALFORMED[case])
        code, out, err = invoke(capsys, self.ARGS + ["--state", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: vector file {str(path)!r} malformed: ")
        assert len(err.splitlines()) == 1 and err.endswith("\n")

    def test_stdout_and_out_file_bytes_match(self, capsys, tmp_path):
        path, state_path = tmp_path / "trajectory.csv", tmp_path / "state.txt"
        # k = 1..4 with k | dim, then k = 3 with dim = 10; each from the ground state and
        # from a state file.
        for k, dim in [(1, 6), (2, 8), (3, 12), (4, 16), (3, 10)]:
            state = np.random.default_rng(dim).normal(size=(2 * dim, 2)).view(complex).ravel()
            dump_vector(state / np.linalg.norm(state), state_path)
            for source in ("ground", str(state_path)):
                argv = ["evolve", "--k", str(k), "--dim", str(dim), "--alpha", "0.4",
                        "--omega", "1", "--g", "0.3-0.1i", "--t-max", "1.0", "--steps", "4",
                        "--state", source]
                code, printed, _ = invoke(capsys, argv)
                assert code == 0 and len(printed.splitlines()) == 1 + 5 * 2 * dim
                code, out, _ = invoke(capsys, argv + ["--out", str(path)])
                assert code == 0 and out == ""
                assert path.read_bytes() == printed.encode("ascii")

    def test_stdout_bytes_at_the_file_descriptor(self, capfd, tmp_path):
        # Written to sys.stdout's binary layer, after text already printed to it.
        path = tmp_path / "trajectory.csv"
        print("before")
        assert run(self.ARGS) == 0
        print("after")
        printed = capfd.readouterr().out
        assert run(self.ARGS + ["--out", str(path)]) == 0
        assert printed == "before\n" + path.read_text(encoding="ascii") + "after\n"

    def test_text_only_stdout_gets_the_same_text(self, capsys, tmp_path):
        path = tmp_path / "trajectory.csv"
        assert run(self.ARGS + ["--out", str(path)]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert run(self.ARGS) == 0
        assert text.getvalue().encode("ascii") == path.read_bytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ground_state_is_lowest_eigenvector(self, capsys, k):
        dim = 6 * k
        code, out, _ = invoke(capsys, ["evolve", "--k", str(k), "--dim", str(dim),
                                       "--alpha", "0.7", "--omega", "1.1", "--g", "0.2-0.1i",
                                       "--t-max", "1", "--steps", "1"])
        assert code == 0
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        psi = rows[: 2 * dim, 2] + 1j * rows[: 2 * dim, 3]
        h = build_full(ModelParams(alpha=0.7, omega=1.1, g=0.2 - 0.1j, k=k, dim=dim))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(h @ psi - eig_hermitian(h)[0][0] * psi) <= 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ground_run_decomposes_the_blocks_once(self, capsys, monkeypatch, k):
        argv = ["evolve", "--k", str(k), "--dim", str(8 * k), "--alpha=0.45", "--omega=1.1",
                "--g=0.07-0.02i", "--t-max=2", "--steps", "9"]
        params = ModelParams(alpha=0.45, omega=1.1, g=0.07 - 0.02j, k=k, dim=8 * k)
        spec = EvolutionSpec(initial_state=ground_state(params), dt=2 / 9, steps=9)
        expected = trajectory_csv(*evolve(params, spec))
        calls = []
        decompose = spectra.sector_eigensystem
        monkeypatch.setattr(spectra, "sector_eigensystem",
                            lambda *args: calls.append(args) or decompose(*args))
        code, out, _ = invoke(capsys, argv)
        assert code == 0 and len(calls) == 1
        # Bytes, not str, here and below: pytest's diff of two long texts takes minutes.
        assert out.encode() == expected.encode()

    @pytest.mark.parametrize("state", ["ground", "file"])
    def test_never_touches_the_dense_blocks(self, capsys, monkeypatch, tmp_path, state):
        argv = ["evolve", "--k", "3", "--dim", "31", "--alpha=0.45", "--omega=1.1",
                "--g=0.07-0.02i", "--t-max=2", "--steps", "9"]
        if state == "file":
            vector = np.random.default_rng(31).normal(size=62) + 0j
            dump_vector(vector / np.linalg.norm(vector), tmp_path / "state.txt")
            argv += ["--state", str(tmp_path / "state.txt")]
        code, out, err = invoke(capsys, argv)

        def dense(*_args, **_kwargs):
            raise AssertionError("dense path called during krabi evolve")

        for module in (krabi, model, riccati, linalg, spectra, cli, _sectors):
            for name in ("build_blocks", "block_diagonalize", "eig_hermitian"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, dense)
        again, printed, warned = invoke(capsys, argv)
        assert (again, warned) == (code, err)
        assert printed.encode() == out.encode()
        assert code == 0

    @pytest.mark.parametrize("k,dim", [(1, 128), (2, 128), (3, 99), (4, 128)])
    def test_large_ground_state_is_lowest_eigenvector(self, capsys, k, dim):
        code, out, _ = invoke(capsys, ["evolve", "--k", str(k), "--dim", str(dim),
                                       "--alpha", "0.7", "--omega", "1.1", "--g", "-0.02-0.01i",
                                       "--t-max", "1", "--steps", "1"])
        assert code == 0
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        psi = rows[: 2 * dim, 2] + 1j * rows[: 2 * dim, 3]
        h = build_full(ModelParams(alpha=0.7, omega=1.1, g=-0.02 - 0.01j, k=k, dim=dim))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(h @ psi - eig_hermitian(h)[0][0] * psi) <= 1e-10

    def test_repeated_runs_leave_no_cyclic_garbage(self, capsys):
        invoke(capsys, self.ARGS)
        gc.collect()
        gc.disable()
        try:
            invoke(capsys, self.ARGS)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_missing_state_file(self, capsys):
        code, _, err = invoke(capsys, self.ARGS + ["--state", "/nonexistent/state.txt"])
        assert code == 2
        assert err.startswith("error:")


class TestStdoutAndOutFile:
    """Every command writes the same bytes to stdout and to --out."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", *MODEL, "--levels", "4"],
        ["sweep", *MODEL, "--levels", "2", "--param", "alpha", "--lo", "0", "--hi", "1",
         "--steps", "3"],
        ["verify", *MODEL],
        ["verify", *MODEL, "--spectra"],
        ["verify", *MODEL, "--candidate", "p"],
        ["parity-table", "--k", "3", "--dim", "10"],
    ], ids=["spectrum", "sweep", "verify", "verify-spectra", "verify-failing", "parity-table"])
    def test_bytes_match(self, capsys, tmp_path, argv):
        path = tmp_path / "out.txt"
        code, printed, _ = invoke(capsys, argv)
        assert invoke(capsys, argv + ["--out", str(path)])[:2] == (code, "")
        assert printed and path.read_bytes() == printed.encode("ascii")


class TestClosedReader:
    """A reader that closes stdout early (``krabi evolve ... | head -1``) ends the output
    quietly: nothing on stderr, and the exit code the command would have returned.

    Each command runs in a subprocess whose stdout is a pipe that the parent stops reading
    right after starting it, so a write to it fails with EPIPE.
    """

    @pytest.mark.parametrize("argv, code", [
        (["evolve", "--k", "2", "--dim", "24", "--alpha", "0.7", "--omega", "1", "--g", "0.2",
          "--t-max", "1", "--steps", "50"], 0),
        (["parity-table", "--k", "2", "--dim", "200000"], 0),
        (["verify", *MODEL], 0),
        (["verify", *MODEL, "--candidate", "p"], 1),
    ], ids=["evolve", "parity-table", "verify", "verify-failing"])
    def test_exit_code_stands_and_stderr_is_empty(self, argv, code):
        read_end, write_end = os.pipe()
        env = {**os.environ, "PYTHONPATH": os.path.dirname(krabi.__path__[0])}
        with subprocess.Popen([sys.executable, "-W", "error", "-m", "krabi.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env) as proc:
            os.close(read_end)
            os.close(write_end)
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (code, b"")


class TestNegativeLiterals:
    BASE = ["verify", "--k", "2", "--dim", "12", "--omega", "1"]

    def test_negative_complex_coupling(self, capsys):
        code, out, _ = invoke(capsys, [*self.BASE, "--alpha", "1", "--g", "-0.1+0.2i"])
        assert code == 0
        params = json.loads(out)["params"]
        assert (params["g_re"], params["g_im"]) == (-0.1, 0.2)

    def test_negative_exponent_gap(self, capsys):
        code, out, _ = invoke(capsys, [*self.BASE, "--alpha", "-1e-3", "--g", "0.5"])
        assert code == 0
        assert json.loads(out)["params"]["alpha"] == -1e-3

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
    @pytest.mark.parametrize("flag", ["--tol", "--alpha", "--omega", "--g"])
    def test_non_finite_after_a_space_reads_as_a_value(self, capsys, flag, value):
        # Only verify takes --tol.
        command = ["verify", *MODEL] if flag == "--tol" else ["spectrum", *MODEL, "--levels", "2"]
        spaced = invoke(capsys, [*command, flag, value])
        joined = invoke(capsys, [*command, f"{flag}={value}"])
        assert spaced == joined
        assert spaced[0] == 2 and "expected one argument" not in spaced[2]

    def test_negative_integer_still_validated(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--k", "-1", "--dim", "4", "--alpha", "1",
                                       "--omega", "1", "--g", "0.5"])
        assert code == 2
        assert err.startswith("error:")


# (k, dim, alpha, g): k = 1...4, with k not dividing dim, g = 0 and alpha < 0 among them.
VALUES_ONLY_MODELS = [
    (1, 16, 0.7, 0.3 + 0.1j),
    (2, 13, -0.4, 0.2 - 0.1j),
    (3, 20, 0.5, 0.0),
    (3, 24, -1.1, 0.04 + 0.03j),
    (4, 30, -0.8, 0.02 - 0.01j),
    (4, 32, 0.6, 0.0),
]


def model_argv(k, dim, alpha, g):
    return ["--k", str(k), "--dim", str(dim), f"--alpha={alpha!r}", "--omega=1.1",
            f"--g={g.real!r}{g.imag:+.17g}i"]


def no_eigh(monkeypatch):
    """Make np.linalg.eigh raise: the paths that keep only eigenvalues never need it."""
    def eigh(*_args, **_kwargs):
        raise AssertionError("np.linalg.eigh called where only eigenvalues are read")

    monkeypatch.setattr(np.linalg, "eigh", eigh)


class TestValuesOnly:
    """sweep, spectrum and verify --spectra solve for eigenvalues alone. sweep and
    verify --spectra agree with the full eigendecomposition to 1e-12 of the largest
    |level|; spectrum prints sector_spectrum's levels, and builds no dense matrix."""

    @pytest.mark.parametrize("k,dim,alpha,g", VALUES_ONLY_MODELS)
    def test_sweep(self, capsys, monkeypatch, k, dim, alpha, g):
        argv = ["sweep", *model_argv(k, dim, alpha, g), "--param", "g", "--lo", "0",
                "--hi", "0.3", "--steps", "3", "--levels", str(dim)]
        no_eigh(monkeypatch)
        code, out, _ = invoke(capsys, argv)
        monkeypatch.undo()
        assert code == 0
        params = ModelParams(alpha=alpha, omega=1.1, g=g, k=k, dim=dim)
        spec = SweepSpec(base=params, param="g", lo=0.0, hi=0.3, steps=3, levels=dim)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        x = np.diag(generalized_parity_signs(k, dim).astype(complex))
        for value in np.linspace(0.0, 0.3, 3):
            blocks = block_diagonalize(build_blocks(spec.params_at(float(value))), x, tol=0.0)
            for sign, block in zip("+-", blocks):
                got = [float(w) for v, b, _, w in rows if float(v) == value and b == sign]
                want = eig_hermitian(block)[0]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("k,dim,alpha,g", VALUES_ONLY_MODELS + [
        (k, dim, -0.3, 0.05 + 0.02j) for k, dim in ((1, 16), (2, 12), (3, 25), (4, 32))])
    def test_spectrum(self, capsys, monkeypatch, k, dim, alpha, g):
        # spectrum solves the sector tridiagonals alone: no dense matrix, no eigenvectors.
        def dense(*_args, **_kwargs):
            raise AssertionError("dense path called during krabi spectrum")

        for module in (krabi, model, riccati, linalg, spectra, cli, _sectors):
            for name in ("build_full", "build_blocks", "eig_hermitian"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, dense)
        no_eigh(monkeypatch)
        code, out, err = invoke(capsys, ["spectrum", *model_argv(k, dim, alpha, g),
                                         "--levels", "2"])
        monkeypatch.undo()
        assert (code, err) == (0, "")
        assert out == spectrum_text(ModelParams(alpha=alpha, omega=1.1, g=g, k=k, dim=dim), 2)

    @pytest.mark.parametrize("k,dim,alpha,g", VALUES_ONLY_MODELS)
    def test_verify_spectra(self, capsys, monkeypatch, k, dim, alpha, g):
        no_eigh(monkeypatch)
        code, out, _ = invoke(capsys, ["verify", *model_argv(k, dim, alpha, g), "--spectra"])
        monkeypatch.undo()
        assert code == 0
        params = ModelParams(alpha=alpha, omega=1.1, g=g, k=k, dim=dim)
        x = np.diag(generalized_parity_signs(k, dim).astype(complex))
        top, bottom = block_diagonalize(build_blocks(params), x, tol=0.0)
        merged = np.sort(np.concatenate([eig_hermitian(top)[0], eig_hermitian(bottom)[0]]))
        full = eig_hermitian(build_full(params))[0]
        want = float(np.max(np.abs(merged - full)))
        got = json.loads(out)["spectra_match"]
        assert abs(got - want) <= 1e-12 * np.max(np.abs(full))


def forbid_checked_solver(monkeypatch):
    """Make eig_hermitian raise in every krabi module that binds it."""
    def checked(*_args, **_kwargs):
        raise AssertionError("eig_hermitian called on a matrix krabi assembled")

    for module in (krabi, model, riccati, linalg, spectra, cli, _sectors):
        if hasattr(module, "eig_hermitian"):
            monkeypatch.setattr(module, "eig_hermitian", checked)


# (k, dim, alpha, g): k = 1...4, with dims that k does not divide, g = 0 and alpha < 0.
UNCHECKED_MODELS = [
    (1, 9, -0.6, 0.35 + 0.1j),
    (1, 10, 0.5, 0j),
    (2, 13, -0.4, 0.2 - 0.1j),
    (2, 15, 0.3, 0j),
    (3, 20, -1.1, 0.04 + 0.03j),
    (3, 25, 0.6, 0j),
    (4, 30, -0.8, 0.02 - 0.01j),
    (4, 31, -0.2, 0j),
]


class TestUncheckedSolves:
    """sweep and verify --spectra solve matrices krabi assembled exactly Hermitian, without
    eig_hermitian, and print the bytes that eig_hermitian of each block gives."""

    @pytest.mark.parametrize("param,lo,hi", [("g", 0.0, 0.3), ("alpha", -0.5, 0.6),
                                             ("omega", 0.5, 1.5)])
    @pytest.mark.parametrize("k,dim,alpha,g", UNCHECKED_MODELS)
    def test_sweep(self, capsys, monkeypatch, k, dim, alpha, g, param, lo, hi):
        params = ModelParams(alpha=alpha, omega=1.1, g=g, k=k, dim=dim)
        spec = SweepSpec(base=params, param=param, lo=lo, hi=hi, steps=4, levels=dim)
        x = np.diag(generalized_parity_signs(k, dim).astype(complex))
        lines = ["param,block,level,eigenvalue"]
        for value in np.linspace(lo, hi, 4):
            blocks = block_diagonalize(build_blocks(spec.params_at(float(value))), x, tol=0.0)
            for sign, block in zip("+-", blocks):
                lines += [f"{value:.16e},{sign},{i},{w:.16e}"
                          for i, w in enumerate(eig_hermitian(block, vectors=False)[0])]
        forbid_checked_solver(monkeypatch)
        argv = ["sweep", *model_argv(k, dim, alpha, g), "--param", param, f"--lo={lo!r}",
                f"--hi={hi!r}", "--steps", "4", "--levels", str(dim)]
        assert invoke(capsys, argv) == (0, "\n".join(lines) + "\n", "")

    @pytest.mark.parametrize("k,dim,alpha,g", UNCHECKED_MODELS)
    def test_verify_spectra(self, capsys, monkeypatch, k, dim, alpha, g):
        # The generalized parity, and the other candidates that pass at this k: the bosonic
        # parity at odd k = 1 and 3, the two-photon parity at k = 2.
        params = ModelParams(alpha=alpha, omega=1.1, g=g, k=k, dim=dim)
        full = eig_hermitian(build_full(params), vectors=False)[0]
        candidates = {"xk": generalized_parity_signs(k, dim)}
        if k in (1, 3):
            candidates["p"] = bosonic_parity_signs(dim)
        if k == 2:
            candidates["t"] = two_photon_parity_signs(dim)
        for candidate, signs in candidates.items():
            top, bottom = block_diagonalize(build_blocks(params), np.diag(signs.astype(complex)))
            merged = np.sort(np.concatenate([eig_hermitian(top, vectors=False)[0],
                                             eig_hermitian(bottom, vectors=False)[0]]))
            report = verify_band(params, signs, riccati.DEFAULT_TOLERANCE)
            report.spectra_match = float(np.max(np.abs(merged - full)))
            with monkeypatch.context() as patched:
                forbid_checked_solver(patched)
                argv = ["verify", *model_argv(k, dim, alpha, g), "--spectra",
                        "--candidate", candidate]
                assert invoke(capsys, argv) == (0, report.to_json() + "\n", "")


class TestOverflow:
    HUGE = ["--k", "1", "--dim", "4", "--alpha", "1"]

    @pytest.mark.parametrize("scale", ["1e150", "1e200"])
    def test_squares_past_the_float64_range_still_verify(self, capsys, scale):
        # The band's sum of squares overflows at 1e200; its norm and the levels do not.
        code, out, err = invoke(capsys, ["spectrum", *self.HUGE, "--omega", scale,
                                         "--g", scale, "--levels", "2"])
        assert (code, err) == (0, "")
        params = ModelParams(alpha=1.0, omega=float(scale), g=float(scale), k=1, dim=4)
        assert out == spectrum_text(params, 2)
        # The sector levels at this scale agree with the dense full spectrum.
        full = eig_hermitian(build_full(params), vectors=False)[0]
        merged = np.sort(np.concatenate(sector_spectrum(params, 4)))
        assert np.max(np.abs(merged - full)) <= 1e-12 * float(scale)
        code, out, err = invoke(capsys, ["verify", *self.HUGE, "--omega", scale, "--g", scale,
                                         "--tol", "0", "--spectra"])
        report = json.loads(out)
        assert (code, err, report["passed"]) == (0, "", True)
        assert report["spectra_match"] <= 1e-12 * float(scale)

    @pytest.mark.parametrize("command", [["spectrum", "--levels", "2"], ["verify"],
                                         ["sweep", "--levels", "2", "--param", "alpha",
                                          "--lo", "0", "--hi", "1", "--steps", "2"],
                                         ["evolve", "--t-max", "1", "--steps", "1"]])
    # A band entry overflows at omega = 1e308, and so do the amplitudes amp_p from p = 139
    # on at k = 256, dim = 512; only the norm does at 5e307. The verdict rule refuses each
    # by the norm scale, with no warning before it.
    @pytest.mark.parametrize("model", [[*HUGE, "--omega", "1e308", "--g", "1"],
                                       [*HUGE, "--omega", "5e307", "--g", "1"],
                                       ["--k", "256", "--dim", "512", "--alpha", "1",
                                        "--omega", "1", "--g", "0.1"]],
                             ids=["1e308-omega*(dim - 1) = inf",
                                  "5e307-2*||h_pm|| + 2*|alpha|*sqrt(dim) = inf",
                                  "k=256-amp_p = inf"])
    def test_band_past_the_float64_range(self, capsys, command, model):
        argv = [command[0], *model, *command[1:]]
        assert invoke(capsys, argv) == (2, "", "error: the model overflows float64: "
                                        "||h_plus|| + ||h_minus|| + 2*|alpha|*sqrt(dim) = inf\n")

    def test_zero_coupling_where_the_amplitudes_overflow_is_solved(self, capsys):
        # At g = 0 the blocks are diagonal, so the amplitudes past float64 at k = 256,
        # dim = 512 do not enter: the levels are omega*p +- alpha*s_p, exact, with no warning.
        model = ["--k", "256", "--dim", "512", "--alpha", "1", "--omega", "1", "--g", "0"]
        code, out, err = invoke(capsys, ["spectrum", *model, "--levels", "2"])
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == ["+,0,1.0000000000000000e+00", "+,1,2.0000000000000000e+00",
                                        "-,0,-1.0000000000000000e+00", "-,1,0.0000000000000000e+00"]
        for flags in ([], ["--spectra"]):
            code, out, err = invoke(capsys, ["verify", *model, *flags])
            report = json.loads(out)
            assert (code, err, report["passed"], report["residual_norm"]) == (0, "", True, 0.0)
        assert report["spectra_match"] <= 1e-12 * 512
        code, out, err = invoke(capsys, ["sweep", *model, "--levels", "2", "--param", "alpha",
                                         "--lo", "0", "--hi", "1", "--steps", "2"])
        assert (code, err) == (0, "")
        assert out == "".join(["param,block,level,eigenvalue\n"] + [
            f"{v:.16e},{b},{i},{w:.16e}\n" for v, levels in ((0, (0, 1, 0, 1)), (1, (1, 2, -1, 0)))
            for (b, i), w in zip((("+", 0), ("+", 1), ("-", 0), ("-", 1)), levels)])
        code, out, err = invoke(capsys, ["evolve", *model, "--t-max", "1", "--steps", "1"])
        params = ModelParams(alpha=1.0, omega=1.0, g=0.0, k=256, dim=512)
        spec = EvolutionSpec(initial_state=ground_state(params), dt=1.0, steps=1)
        assert (code, err, out) == (0, "", trajectory_csv(*evolve(params, spec)))

    def test_evolve_phase_past_the_float64_range(self, capsys, tmp_path):
        path = tmp_path / "trajectory.csv"
        argv = ["evolve", *self.HUGE, "--omega", "1", "--g", "0.1", "--t-max", "1e308",
                "--steps", "1"]
        code, out, err = invoke(capsys, [*argv, "--out", str(path)])
        assert (code, out) == (2, "") and not path.exists()
        assert err.startswith("error: the phase w*t overflows float64: ") and err.count("\n") == 1
        assert invoke(capsys, argv) == (code, out, err)


class TestErrorPaths:
    @pytest.mark.parametrize("argv,target", [
        (["verify", *MODEL, "--spectra"], (riccati, "_eigh")),
        (["verify", *MODEL, "--dump", "residual.txt"], (cli, "build_blocks")),
        (["spectrum", *MODEL, "--levels", "2"], (_sectors, "_eigh")),
        (["evolve", *MODEL, "--t-max", "1", "--steps", "2"], (_sectors, "_eigh")),
    ], ids=["verify-spectra", "verify-dump", "spectrum", "evolve"])
    def test_refused_allocation_is_one_error_line(self, capsys, monkeypatch, tmp_path, argv,
                                                  target):
        # Stands in for a request too large for memory; nothing large is allocated.
        def refuse(*_args, **_kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape "
                              "(1048576, 1048576) and data type complex128")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(*target, refuse)
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == ("error: Unable to allocate 8.00 TiB for an array with shape "
                       "(1048576, 1048576) and data type complex128\n")

    def test_bare_memory_error_still_gives_a_reason(self, capsys, monkeypatch):
        # The interpreter's own MemoryError carries no text.
        def refuse(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(riccati, "_eigh", refuse)
        assert invoke(capsys, ["verify", *MODEL, "--spectra"]) == (2, "", "error: MemoryError\n")

    def test_zero_k_rejected(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--k", "0", "--dim", "4", "--alpha", "1",
                                       "--omega", "1", "--g", "0.5"])
        assert code == 2
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_small_truncation_rejected(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--k", "3", "--dim", "4", "--alpha", "1",
                                       "--omega", "1", "--g", "0.5"])
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_coupling_rejected(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--k", "1", "--dim", "4", "--alpha", "1",
                                       "--omega", "1", "--g", "1+2j"])
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = invoke(capsys, ["verify", *MODEL, "--frobnicate"])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_subcommand_rejected(self, capsys):
        code, _, err = invoke(capsys, [])
        assert code == 2
        assert err.startswith("error:")


class TestErrorMessages:
    SWEEP = ["sweep", *MODEL, "--levels", "2", "--param", "g", "--lo", "0", "--hi", "0.4"]

    @pytest.mark.parametrize("argv,line", [
        (["parity-table", "--k", "0", "--dim", "4"], "k must be a positive integer, got 0"),
        (["parity-table", "--k", "3", "--dim", "5"], "dim must be at least 2*k = 6, got 5"),
        (["spectrum", "--k", "2", "--dim", "3", "--alpha", "1", "--omega", "1", "--g", "0.5",
          "--levels", "2"], "dim must be at least 2*k = 4, got 3"),
        ([*SWEEP, "--steps", "1"], "steps must be at least 2, got 1"),
        (["spectrum", *MODEL, "--levels", "13"],
         "levels must satisfy 1 <= levels <= dim = 12, got 13"),
        (["sweep", *MODEL, "--levels", "13", "--param", "g", "--lo", "0", "--hi", "0.4",
          "--steps", "2"], "levels must satisfy 1 <= levels <= dim = 12, got 13"),
        # The library checks --levels; argparse only reads an int.
        (["spectrum", *MODEL, "--levels", "0"],
         "levels must satisfy 1 <= levels <= dim = 12, got 0"),
        (["spectrum", *MODEL, "--levels", "two"], "argument --levels: invalid int value: 'two'"),
        # The library checks --steps too, before evolve divides t_max by it.
        (["evolve", *MODEL, "--t-max", "1", "--steps", "0"], "steps must be at least 1, got 0"),
        # omega's rule has one home, ModelParams: a sweep from omega = 0 gets its text.
        (["sweep", *MODEL, "--levels", "2", "--param", "omega", "--lo", "0", "--hi", "1",
          "--steps", "3"], "omega must be finite and > 0, got 0.0"),
        # A time step that rounds to 0 names the flags it comes from, not the library's dt.
        (["evolve", *MODEL, "--t-max", "5e-324", "--steps", "2"],
         "the time step --t-max / --steps = 5e-324 / 2 rounds to 0"),
    ])
    def test_range_errors_keep_their_text(self, capsys, argv, line):
        assert invoke(capsys, argv) == (2, "", f"error: {line}\n")


class TestTolerance:
    COMMANDS = {
        "verify": ["verify", *MODEL],
        "spectrum": ["spectrum", *MODEL, "--levels", "2"],
        "sweep": ["sweep", *MODEL, "--param", "g", "--lo", "0", "--hi", "0.4", "--steps", "2",
                  "--levels", "2"],
        "evolve": ["evolve", *MODEL, "--t-max", "1", "--steps", "2"],
    }

    @pytest.mark.parametrize("spelling", ["space", "equals"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_non_finite_or_negative_is_a_usage_error(self, capsys, command, value, spelling):
        flag = ["--tol", value] if spelling == "space" else [f"--tol={value}"]
        code, out, err = invoke(capsys, self.COMMANDS[command] + flag)
        assert code == 2 and out == ""
        # verify rejects the value; the commands that verify at tolerance 0 reject the flag.
        reason = ("tolerance must be finite and >= 0, got " if command == "verify"
                  else "unrecognized arguments: --tol")
        assert err.startswith(f"error: {reason}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "evolve"])
    def test_only_verify_takes_a_tolerance(self, capsys, command):
        code, out, err = invoke(capsys, self.COMMANDS[command] + ["--tol", "1e-10"])
        assert (code, out) == (2, "")
        assert err == "error: unrecognized arguments: --tol 1e-10\n"

    def test_only_verify_lists_the_tolerance_flag(self, capsys):
        listed = set()
        for command in ("verify", "parity-table", "spectrum", "sweep", "evolve"):
            code, out, _ = invoke(capsys, [command, "--help"])
            assert code == 0
            if "--tol" in out:
                listed.add(command)
        assert listed == {"verify"}

    @pytest.mark.parametrize("tol", ["0", "1e-10", "0.5", "1e300"])
    @pytest.mark.parametrize("candidate", ["xk", "p", "t"])
    def test_every_verify_report_is_strict_json(self, capsys, candidate, tol):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = invoke(capsys, ["verify", *MODEL, "--candidate", candidate,
                                       "--tol", tol, "--spectra"])
        report = json.loads(out, parse_constant=reject)
        assert report["tolerance"] == float(tol)
        assert code == (0 if report["passed"] else 1)


class TestImport:
    def test_no_command_imports_a_thread_pool(self):
        # concurrent.futures (and logging with it) would cost every subcommand's
        # start-up; no command needs it since sweep lost its thread pool.
        code = ("import sys, krabi, krabi.cli; "
                "print('concurrent.futures' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(krabi.__path__[0])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "False"
