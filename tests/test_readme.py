"""Every `krabi ...` example in the README's sh blocks runs and exits as documented,
and every python block runs and holds what it states.

A line exits 1 where its comment says "exits 1", and 0 otherwise; a flag the
CLI no longer takes is a usage error (exit 2) and fails here. A python block
runs in a fresh namespace, so a name the package no longer exports fails here.
"""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from krabi import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, expected exit code) for each krabi line, continuations joined."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("krabi "):
                examples.append((shlex.split(command)[1:], 1 if "exits 1" in comment else 0))
    return examples


EXAMPLES = readme_examples()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv, _ in EXAMPLES} == {"verify", "parity-table", "spectrum", "sweep",
                                                  "evolve"}


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(EXAMPLES)])
def test_example_exits_as_documented(capsys, monkeypatch, tmp_path, argv, expected):
    monkeypatch.chdir(tmp_path)  # verify --dump writes to the working directory
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == expected, err


PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(capsys, source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    capsys.readouterr()


def test_quick_start_claims():
    (source,) = [block for block in PYTHON_BLOCKS if "block_diagonalize" in block]
    namespace = {"__name__": "readme"}
    exec(compile(source, str(README), "exec"), namespace)
    # "exactly 0.0: x solves the equation"
    assert namespace["report"].relative_residual == 0.0
    # "`levels` equals the spectrum of blocks.full_matrix() to roundoff"
    full = np.linalg.eigvalsh(namespace["blocks"].full_matrix())
    levels = namespace["levels"]
    assert levels.shape == full.shape
    assert np.max(np.abs(levels - full)) <= 1e-12 * (full[-1] - full[0])
