"""One check per input rule, reached through every entry point with the same text.

Step counts are checked by errors._steps, the values of a vector or matrix
file by linalg._load, and a parity's sign vector by the band verdict
(_sectors.verify_band). Each table below sends one rule's bad inputs through
every entry point that reaches it. On the command line a refused input is
one "error:" line on stderr and exit code 2.
"""

import numpy as np
import pytest

from krabi import _sectors
from krabi.errors import ShapeError, SolutionError
from krabi.linalg import dump_vector, load_matrix, load_vector
from krabi.model import ModelParams
from krabi.parity import generalized_parity_signs
from krabi.riccati import _require_passed
from krabi.spectra import EvolutionSpec, SweepSpec, ground_state, sector_spectrum
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
        with pytest.raises(ShapeError, match="^cannot dump a vector with non-finite entries$"):
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
