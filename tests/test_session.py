"""The test configuration in pyproject.toml reports a failing hypothesis test as a failure.

To print a failing example, hypothesis imports libcst, whose import of
mypy_extensions emits a DeprecationWarning. Under the configuration's
``error::DeprecationWarning`` that warning would end the whole session with
INTERNALERROR, and no other result would be reported.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_is_reported_with_the_rest(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED test_property.py::test_fails" in output
    assert "1 failed, 1 passed" in output
    assert result.returncode == 1
