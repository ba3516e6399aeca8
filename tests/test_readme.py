"""Every `krabi ...` example in the README's sh blocks runs and exits as documented.

A line exits 1 where its comment says "exits 1", and 0 otherwise; a flag the
CLI no longer takes is a usage error (exit 2) and fails here.
"""

import re
import shlex
from pathlib import Path

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
