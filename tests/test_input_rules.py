"""One check per input rule, reached through every entry point with the same text.

Step counts are checked by errors._steps, real and complex scalars by
errors._number, vector and matrix arguments by linalg._array, the values of a
vector or matrix file by linalg._load, and a parity's sign vector by the band
verdict (_sectors.verify_band). Each table below sends one rule's bad inputs
through every entry point that reaches it. On the command line a refused input is
one "error:" line on stderr and exit code 2.
"""

import math

import numpy as np
import pytest

from krabi import _sectors
from krabi.errors import HermiticityError, ShapeError, SolutionError
from krabi.fock import power_k
from krabi.linalg import _norm, dump_matrix, dump_vector, eig_hermitian, load_matrix, load_vector
from krabi.model import BlockOperator, ModelParams, build_blocks
from krabi.parity import bosonic_parity, generalized_parity, generalized_parity_signs
from krabi.riccati import (_require_passed, block_diagonalize, residual, similarity_transform,
                           verify_involution_solution)
from krabi.spectra import EvolutionSpec, SweepSpec, ground_state, sector_spectrum, trajectory_csv
from test_cli import MODEL, invoke

PARAMS = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=2, dim=12)


def library(call):
    """An entry point's outcome: the text of the ValueError it raises, or None."""
    def outcome(capsys, *args):
        try:
            call(*args)
        except ValueError as exc:
            return str(exc)
        return None
    return outcome


def command(argv_of):
    """A subcommand's outcome: the text of its one error line, or None when it exits 0."""
    def outcome(capsys, *args):
        code, out, err = invoke(capsys, argv_of(*args))
        if code == 0:
            return None
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        return err[len("error: "):-1]
    return outcome


class TestSteps:
    SWEEP = ["sweep", *MODEL, "--levels", "2", "--param", "g", "--lo", "0", "--hi", "0.4"]
    EVOLVE = ["evolve", *MODEL, "--t-max", "1"]
    #: Entry point: (least steps, outcome).
    ENTRIES = {
        "SweepSpec": (2, library(lambda steps: SweepSpec(
            base=PARAMS, param="g", lo=0.0, hi=0.4, steps=steps, levels=2))),
        "EvolutionSpec": (1, library(lambda steps: EvolutionSpec(
            initial_state=ground_state(PARAMS), dt=0.1, steps=steps))),
        "krabi sweep": (2, command(lambda steps: [*TestSteps.SWEEP, "--steps", str(steps)])),
        "krabi evolve": (1, command(lambda steps: [*TestSteps.EVOLVE, "--steps", str(steps)])),
    }

    @pytest.mark.parametrize("steps", [-1, 0, 1, 2])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_one_text_per_entry_point(self, capsys, entry, steps):
        least, outcome = self.ENTRIES[entry]
        expected = None if steps >= least else f"steps must be at least {least}, got {steps}"
        assert outcome(capsys, steps) == expected


class TestScalars:
    BLOCKS = build_blocks(PARAMS)
    #: Entry point: (parameter, float or complex, bound, outcome for a value). The
    #: value 1 is valid at each.
    ENTRIES = {
        "ModelParams alpha": ("alpha", float, "", library(lambda v: ModelParams(
            alpha=v, omega=1.0, g=0.5, k=2, dim=12))),
        "ModelParams omega": ("omega", float, "> 0", library(lambda v: ModelParams(
            alpha=1.0, omega=v, g=0.5, k=2, dim=12))),
        "ModelParams g": ("g", complex, "", library(lambda v: ModelParams(
            alpha=1.0, omega=1.0, g=v, k=2, dim=12))),
        "BlockOperator alpha": ("alpha", float, "", library(lambda v: BlockOperator(
            h_plus=TestScalars.BLOCKS.h_plus, h_minus=TestScalars.BLOCKS.h_minus, alpha=v))),
        "SweepSpec lo (g)": ("lo", float, ">= 0", library(lambda v: SweepSpec(
            base=PARAMS, param="g", lo=v, hi=2.0, steps=3, levels=2))),
        "SweepSpec lo (alpha)": ("lo", float, "", library(lambda v: SweepSpec(
            base=PARAMS, param="alpha", lo=v, hi=2.0, steps=3, levels=2))),
        "SweepSpec hi": ("hi", float, "", library(lambda v: SweepSpec(
            base=PARAMS, param="alpha", lo=-2.0, hi=v, steps=3, levels=2))),
        "EvolutionSpec dt": ("dt", float, "> 0", library(lambda v: EvolutionSpec(
            initial_state=ground_state(PARAMS), dt=v, steps=2))),
        "verify_involution_solution tol": ("tolerance", float, ">= 0", library(
            lambda v: verify_involution_solution(TestScalars.BLOCKS, generalized_parity(2, 12),
                                                 tol=v))),
        "block_diagonalize tol": ("tolerance", float, ">= 0", library(
            lambda v: block_diagonalize(TestScalars.BLOCKS, generalized_parity(2, 12), tol=v))),
        "verify_band tol": ("tolerance", float, ">= 0", library(
            lambda v: _sectors.verify_band(PARAMS, generalized_parity_signs(2, 12), v))),
    }
    NOUN = {float: "a real number", complex: "a complex number"}
    #: Values that are no number of the kind, for every entry point.
    NOT_NUMBERS = [True, False, "1", None, np.array(1.0), np.array([1.0]), np.bool_(True)]
    #: A value that is not finite, and the float it reads as.
    NOT_FINITE = [(math.nan, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
                  (10**400, math.inf), (-10**400, -math.inf)]
    #: For each bound, the values on its edge or past it.
    PAST_BOUND = {"": [], "> 0": [0, 0.0, -1e-300], ">= 0": [-1, -5e-324]}

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_not_a_number_is_refused_by_name(self, capsys, entry, value):
        name, kind, _, outcome = self.ENTRIES[entry]
        assert outcome(capsys, value) == f"{name} must be {self.NOUN[kind]}, got {value!r}"

    @pytest.mark.parametrize("entry", [e for e, spec in ENTRIES.items() if spec[1] is float])
    def test_complex_is_refused_for_a_real(self, capsys, entry):
        name, _, _, outcome = self.ENTRIES[entry]
        for value in (1j, 1 + 0j, np.complex128(1)):
            assert outcome(capsys, value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("value,read", NOT_FINITE,
                             ids=["nan", "inf", "-inf", "10**400", "-10**400"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_not_finite_is_refused(self, capsys, entry, value, read):
        name, kind, bound, outcome = self.ENTRIES[entry]
        rule = f"{name} must be finite{f' and {bound}' if bound else ''}"
        assert outcome(capsys, value) == f"{rule}, got {kind(read)}"

    @pytest.mark.parametrize("entry", [e for e, spec in ENTRIES.items() if spec[2]])
    def test_bound_is_refused_on_its_edge(self, capsys, entry):
        name, _, bound, outcome = self.ENTRIES[entry]
        for value in self.PAST_BOUND[bound]:
            assert outcome(capsys, value) == (
                f"{name} must be finite and {bound}, got {float(value)}")

    @pytest.mark.parametrize("entry", [e for e, spec in ENTRIES.items() if spec[1] is complex])
    def test_complex_parts_must_be_finite(self, capsys, entry):
        name, _, _, outcome = self.ENTRIES[entry]
        for value in (complex(0.5, math.nan), complex(0.5, -math.inf)):
            assert outcome(capsys, value) == f"{name} must be finite, got {value}"

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_numpy_scalars_are_accepted(self, capsys, entry):
        kind, outcome = self.ENTRIES[entry][1], self.ENTRIES[entry][3]
        scalars = [int, float, np.float64, np.float32, np.int64, np.int8, np.uint16]
        if kind is complex:
            scalars += [complex, np.complex128, np.complex64]
        for scalar in scalars:
            assert outcome(capsys, scalar(1)) is None, scalar

    def test_values_are_held_as_python_scalars(self):
        params = ModelParams(alpha=np.float32(0.5), omega=np.int64(2), g=np.complex64(0.25j),
                             k=np.int64(2), dim=12)
        assert (params.alpha, params.omega, params.g) == (0.5, 2.0, 0.25j)
        assert [type(v) for v in (params.alpha, params.omega, params.g)] == [float, float, complex]
        spec = SweepSpec(base=params, param="omega", lo=np.int64(1), hi=np.float32(2), steps=2,
                         levels=2)
        assert (type(spec.lo), type(spec.hi)) == (float, float)
        report = _sectors.verify_band(params, generalized_parity_signs(2, 12), np.float32(0.5))
        assert type(report.tolerance) is float and report.to_dict()["tolerance"] == 0.5

    def test_boolean_tolerance_is_no_tolerance(self):
        # True read as 1.0 passed the bosonic parity at k = 2, which fails at 1e-10.
        blocks = build_blocks(ModelParams(alpha=1.0, omega=1.0, g=0.5, k=2, dim=8))
        assert not verify_involution_solution(blocks, bosonic_parity(8), tol=1e-10).passed
        with pytest.raises(ValueError, match="^tolerance must be a real number, got True$"):
            verify_involution_solution(blocks, bosonic_parity(8), tol=True)

    SWEEP = ["sweep", *MODEL, "--levels", "2", "--steps", "3"]
    #: Flag: (parameter, bound, the subcommand's arguments without it).
    FLAGS = {
        "--alpha": ("alpha", "", ["spectrum", *MODEL, "--levels", "2"]),
        "--omega": ("omega", "> 0", ["verify", *MODEL]),
        "--lo": ("lo", ">= 0", [*SWEEP, "--param", "g", "--hi", "2"]),
        "--hi": ("hi", "", [*SWEEP, "--param", "alpha", "--lo", "0"]),
        "--t-max": ("t-max", "> 0", ["evolve", *MODEL, "--steps", "2"]),
        "--tol": ("tolerance", ">= 0", ["verify", *MODEL]),
    }

    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_command_line_gives_the_library_text(self, capsys, flag):
        name, bound, argv = self.FLAGS[flag]
        rule = f"{name} must be finite{f' and {bound}' if bound else ''}"
        outcome = command(lambda token: [*argv, f"{flag}={token}"])
        edges = [str(v) for v in self.PAST_BOUND[bound]]
        for token in ["nan", "inf", "-inf", "1e400", "-1e400", *edges]:
            assert outcome(capsys, token) == f"{rule}, got {float(token)}", token

    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_command_line_accepts_a_valid_value(self, capsys, flag):
        argv = self.FLAGS[flag][2]
        assert command(lambda token: [*argv, f"{flag}={token}"])(capsys, "1") is None


class TestArrays:
    BLOCKS = build_blocks(PARAMS)
    #: A value valid at every entry point of each kind: the generalized parity at k = 2,
    #: dim 12 (a Hermitian involution that solves BLOCKS), and a normalized state.
    VALID = {2: np.diag(generalized_parity_signs(2, 12)), 1: np.array([1, 0])}
    #: Entry point: (parameter, 1 for a vector or 2 for a square matrix, outcome for a
    #: value and a path to write to).
    ENTRIES = {
        "eig_hermitian": ("a", 2, library(lambda v, path: eig_hermitian(v))),
        "BlockOperator h_plus": ("h_plus", 2, library(lambda v, path: BlockOperator(
            h_plus=v, h_minus=TestArrays.BLOCKS.h_minus, alpha=1.0))),
        "BlockOperator h_minus": ("h_minus", 2, library(lambda v, path: BlockOperator(
            h_plus=TestArrays.BLOCKS.h_plus, h_minus=v, alpha=1.0))),
        "residual": ("x", 2, library(lambda v, path: residual(TestArrays.BLOCKS, v))),
        "verify_involution_solution": ("x", 2, library(
            lambda v, path: verify_involution_solution(TestArrays.BLOCKS, v))),
        "block_diagonalize": ("x", 2, library(
            lambda v, path: block_diagonalize(TestArrays.BLOCKS, v))),
        "similarity_transform": ("x", 2, library(lambda v, path: similarity_transform(v))),
        "power_k": ("op", 2, library(lambda v, path: power_k(v, 2))),
        "dump_matrix": ("a", 2, library(dump_matrix)),
        "EvolutionSpec": ("initial state", 1, library(
            lambda v, path: EvolutionSpec(initial_state=v, dt=0.1, steps=1))),
        "dump_vector": ("v", 1, library(dump_vector)),
    }
    #: Values whose entries are no numbers, and what the text says they are.
    NOT_NUMBERS = [(None, "dtype object"), ("ab", "dtype <U2"), (True, "dtype bool"),
                   ([[True]], "dtype bool"), ([1, None], "dtype object"),
                   ([[1.0, 2.0], [3.0]], "a ragged sequence")]
    #: For each kind, values of another shape: a scalar, the wrong number of
    #: dimensions (no flattening, no promotion), a non-square matrix, an empty array.
    WRONG_SHAPES = {2: [1.0, np.ones(12), np.ones((1, 12, 12)), np.ones((12, 11)),
                        np.zeros((0, 0))],
                    1: [1.0, np.eye(2), np.array([[1.0, 0.0]]), np.zeros(0)]}

    def refused(self, capsys, tmp_path, entry, value):
        """The entry point's text for ``value``, after checking that it wrote nothing."""
        path = tmp_path / "out.txt"
        text = self.ENTRIES[entry][2](capsys, value, path)
        assert not path.exists()
        return text

    @pytest.mark.parametrize("value,got", NOT_NUMBERS, ids=[repr(v) for v, _ in NOT_NUMBERS])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_not_numbers_are_refused_by_name(self, capsys, tmp_path, entry, value, got):
        name = self.ENTRIES[entry][0]
        assert self.refused(capsys, tmp_path, entry, value) == (
            f"{name} must be an array of numbers, got {got}")

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_wrong_shape_is_refused_by_name(self, capsys, tmp_path, entry):
        name, ndim, _ = self.ENTRIES[entry]
        noun = "a square matrix" if ndim == 2 else "a vector"
        for value in self.WRONG_SHAPES[ndim]:
            assert self.refused(capsys, tmp_path, entry, value) == (
                f"{name} must be {noun}, got shape {np.shape(value)}")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=repr)
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_non_finite_entries_are_refused(self, capsys, tmp_path, entry, bad):
        name, ndim, _ = self.ENTRIES[entry]
        value = self.VALID[ndim].astype(np.complex128)
        value.reshape(-1)[-1] = bad
        assert self.refused(capsys, tmp_path, entry, value) == f"{name} contains non-finite entries"

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_numeric_arrays_are_accepted(self, capsys, tmp_path, entry):
        _, ndim, outcome = self.ENTRIES[entry]
        valid, written = self.VALID[ndim], set()
        for value in [valid.tolist()] + [valid.astype(t) for t in (
                np.int64, np.int8, np.float32, np.float64, np.complex64, np.complex128)]:
            path = tmp_path / "out.txt"
            assert outcome(capsys, value, path) is None, value
            if path.exists():
                written.add(path.read_bytes())
                path.unlink()
        assert len(written) == (1 if entry.startswith("dump") else 0)

    TINY = np.array([[0.0, 1e-200], [0.0, 0.0]])

    def test_norm_of_entries_whose_squares_underflow(self):
        assert _norm(np.array([3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
        assert _norm(np.array([5e-324j])) == 5e-324
        assert _norm(np.zeros(3)) == 0.0

    def test_non_hermitian_matrix_of_tiny_entries_is_refused(self):
        # ||a - a^dag|| = 1.4e-200 underflowed to 0, so this nilpotent matrix passed as Hermitian.
        with pytest.raises(HermiticityError, match=r"^matrix is not Hermitian: defect 1\.414e-200 "
                           r"exceeds 1\.0e-12 \* \|\|a\|\| = 1\.000e-212$"):
            eig_hermitian(self.TINY)
        with pytest.raises(HermiticityError, match=r"\|\|h_plus\|\|"):
            BlockOperator(h_plus=self.TINY, h_minus=np.zeros((2, 2)), alpha=1.0)
        with pytest.raises(SolutionError, match="^x is not Hermitian; closed-form inverse "):
            similarity_transform(self.TINY)

    @pytest.mark.parametrize("times,states", [(None, None), (np.float64(1.0), np.zeros((1, 2)))],
                             ids=["None", "scalar time"])
    def test_trajectory_times_must_be_a_vector(self, times, states):
        with pytest.raises(ShapeError, match=r"^got times of shape \(\) for states of shape "):
            trajectory_csv(times, states)


def value_file(path, kind, token):
    """A 2x2 matrix or a 24-component vector (a state of MODEL) file, all 0 but the
    first entry's imaginary part, which is ``token``."""
    count, size = (2, 4) if kind == "matrix" else (24, 24)
    path.write_text(f"{count}\n0 {token}\n" + "0 0\n" * (size - 1))
    return path


class TestFileValues:
    #: Entry point: (kind of file, outcome for a path).
    ENTRIES = {
        "load_matrix": ("matrix", library(load_matrix)),
        "load_vector": ("vector", library(load_vector)),
        "krabi evolve --state": ("vector", command(lambda path: [
            "evolve", *MODEL, "--t-max", "1", "--steps", "2", "--state", str(path)])),
    }

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_non_finite_value_names_the_file(self, capsys, tmp_path, entry, token):
        kind, outcome = self.ENTRIES[entry]
        path = value_file(tmp_path / "values.txt", kind, token)
        assert outcome(capsys, path) == (
            f"{kind} file {str(path)!r} malformed: value {token!r} is not finite")

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_finite_values_are_read(self, capsys, tmp_path, entry):
        kind, outcome = self.ENTRIES[entry]
        path = value_file(tmp_path / "values.txt", kind, "1")
        assert outcome(capsys, path) is None

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                       complex(-np.inf, 1.0)])
    def test_dump_vector_writes_no_file(self, tmp_path, value):
        path = tmp_path / "v.txt"
        with pytest.raises(ShapeError, match="^v contains non-finite entries$"):
            dump_vector(np.array([1.0, value]), path)
        assert not path.exists()


class TestSignVector:
    #: The values that a parity's diagonal may not hold: only real +-1 verifies.
    BAD = [2.0, 1j, -1.0 + 1e-15, 0.0]

    def signs(self, bad):
        signs = generalized_parity_signs(PARAMS.k, PARAMS.dim).astype(type(bad))
        signs[5] = bad
        return signs

    @pytest.mark.parametrize("bad", BAD)
    def test_band_verdict_fails_at_tolerance_zero(self, bad):
        report = _sectors.verify_band(PARAMS, self.signs(bad), 0.0)
        assert not report.passed and report.involution_defect > 0

    @pytest.mark.parametrize("entry", ["sector_spectrum", "sector_eigensystem"])
    @pytest.mark.parametrize("bad", BAD)
    def test_solves_raise_the_verdict(self, monkeypatch, bad, entry):
        signs = self.signs(bad)
        with pytest.raises(SolutionError) as verdict:
            _require_passed(_sectors.verify_band(PARAMS, signs, 0.0))
        monkeypatch.setattr(_sectors, "generalized_parity_signs", lambda *_: signs)
        with pytest.raises(SolutionError) as solve:
            if entry == "sector_spectrum":
                sector_spectrum(PARAMS, 3)
            else:
                _sectors.sector_eigensystem(PARAMS)
        assert str(solve.value) == str(verdict.value)
        assert str(solve.value).startswith("candidate is not a verified Riccati solution: ")
