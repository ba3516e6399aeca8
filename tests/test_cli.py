"""CLI contract: subcommands, exit codes, error lines, byte determinism."""

import gc
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
from krabi.cli import parse_complex, run
from krabi.linalg import dump_vector, eig_hermitian, load_matrix
from krabi.model import ModelParams, build_full
from krabi.riccati import VerificationReport
from krabi import spectra
from krabi.spectra import (EvolutionSpec, SweepSpec, evolve, ground_state, sector_spectrum,
                           trajectory_csv)

MODEL = ["--k", "2", "--dim", "12", "--alpha", "1", "--omega", "1", "--g", "0.5"]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        path = str(tmp_path / "residual.txt")
        code, _, _ = invoke(capsys, ["verify", *MODEL, "--dump", path])
        assert code == 0
        res = load_matrix(path)
        assert res.shape == (12, 12)
        assert np.linalg.norm(res) <= 1e-12

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        code, out, _ = invoke(capsys, ["verify", *MODEL, "--out", path])
        assert code == 0 and out == ""
        assert json.loads(open(path).read())["is_involution"] is True

    def test_report_carries_defects_and_verdict(self, capsys):
        code, out, _ = invoke(capsys, ["verify", *MODEL, "--candidate", "p"])
        report = json.loads(out)
        assert code == 1 and report["passed"] is False
        assert report["involution_defect"] <= 1e-12
        assert report["intertwining_defect"] > 1e-3

    def test_exit_code_follows_passed_not_residual(self, capsys, monkeypatch):
        def not_an_involution(blocks, x, **kwargs):
            return VerificationReport(
                residual_norm=0.0, relative_residual=0.0, involution_defect=1.0,
                intertwining_defect=0.0, is_involution=False, intertwines=True,
                tolerance=kwargs["tol"])

        monkeypatch.setattr(cli, "verify_involution_solution", not_an_involution)
        code, out, _ = invoke(capsys, ["verify", *MODEL])
        report = json.loads(out)
        assert report["relative_residual"] == 0.0 and report["is_involution"] is False
        assert code == 1


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

    def test_warns_when_k_does_not_divide_dim(self, capsys):
        code, _, err = invoke(capsys, ["parity-table", "--k", "2", "--dim", "7"])
        assert code == 0
        assert err.startswith("warning:")


class TestSpectrumAndSweep:
    def test_spectrum_output(self, capsys):
        # The deviation line compares the sector route with the dense full matrix.
        for k, dim in ((1, 16), (2, 12), (3, 25), (4, 32)):
            argv = ["spectrum", "--k", str(k), "--dim", str(dim), "--alpha=-0.3",
                    "--omega=1.2", "--g=0.05+0.02i", "--levels", "3"]
            code, out, _ = invoke(capsys, argv)
            assert code == 0, k
            lines = out.splitlines()
            assert lines[0].startswith("# max_full_spectrum_deviation = ")
            deviation = float(lines[0].split("=")[1])
            params = ModelParams(alpha=-0.3, omega=1.2, g=0.05 + 0.02j, k=k, dim=dim)
            full = eig_hermitian(build_full(params))[0]
            assert deviation <= 1e-12 * (full[-1] - full[0]), k
            assert lines[1] == "block,level,eigenvalue"
            assert len(lines) == 2 + 6

    def test_spectrum_bytes_match_separate_lowest_levels(self, capsys):
        levels = 4
        code, out, _ = invoke(capsys, ["spectrum", *MODEL, "--levels", str(levels)])
        assert code == 0
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=2, dim=12)
        w_top, w_bottom = sector_spectrum(params, levels)
        merged = np.sort(np.concatenate(sector_spectrum(params, params.dim)))
        deviation = float(np.max(np.abs(merged - eig_hermitian(build_full(params))[0])))
        expected = [f"# max_full_spectrum_deviation = {deviation:.16e}",
                    "block,level,eigenvalue"]
        expected += [f"+,{i},{w:.16e}" for i, w in enumerate(w_top)]
        expected += [f"-,{i},{w:.16e}" for i, w in enumerate(w_bottom)]
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
        _, threaded, _ = invoke(capsys, argv + ["--jobs", "2"])
        assert first == second == threaded
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

    def test_sweep_invalid_range(self, capsys):
        code, _, err = invoke(capsys, ["sweep", *MODEL, "--param", "g", "--lo", "1",
                                       "--hi", "0", "--steps", "3", "--levels", "2"])
        assert code == 2
        assert err.startswith("error:")


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

    def test_stdout_and_out_file_bytes_match(self, capsys, tmp_path):
        path = tmp_path / "trajectory.csv"
        _, printed, _ = invoke(capsys, self.ARGS)
        code, out, _ = invoke(capsys, self.ARGS + ["--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_bytes() == printed.encode("ascii")

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
        assert out == expected

    @pytest.mark.parametrize("state", ["ground", "file"])
    def test_never_touches_the_dense_blocks(self, capsys, monkeypatch, tmp_path, state):
        argv = ["evolve", "--k", "3", "--dim", "31", "--alpha=0.45", "--omega=1.1",
                "--g=0.07-0.02i", "--t-max=2", "--steps", "9"]
        if state == "file":
            vector = np.random.default_rng(31).normal(size=62) + 0j
            dump_vector(vector / np.linalg.norm(vector), tmp_path / "state.txt")
            argv += ["--state", str(tmp_path / "state.txt")]
        expected = invoke(capsys, argv)

        def dense(*_args, **_kwargs):
            raise AssertionError("dense path called during krabi evolve")

        for module in (krabi, model, riccati, linalg, spectra, cli, _sectors):
            for name in ("build_blocks", "block_diagonalize", "eig_hermitian"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, dense)
        assert invoke(capsys, argv) == expected
        assert expected[0] == 0

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
        command = ["spectrum", *MODEL, "--levels", "2"]
        spaced = invoke(capsys, [*command, flag, value])
        joined = invoke(capsys, [*command, f"{flag}={value}"])
        assert spaced == joined
        assert spaced[0] == 2 and "expected one argument" not in spaced[2]

    def test_negative_integer_still_validated(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--k", "-1", "--dim", "4", "--alpha", "1",
                                       "--omega", "1", "--g", "0.5"])
        assert code == 2
        assert err.startswith("error:")


class TestErrorPaths:
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
        assert err.startswith("error:") and "--tol" in err
        assert len(err.splitlines()) == 1

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
    def test_thread_pool_is_imported_only_by_parallel_sweeps(self):
        # concurrent.futures (and logging with it) costs every subcommand's
        # start-up; only sweep --jobs N with N > 1 needs it.
        code = ("import sys, krabi, krabi.cli; "
                "print('concurrent.futures' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(krabi.__path__[0])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "False"
