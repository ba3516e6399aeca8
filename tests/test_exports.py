"""The package's export list names only what the package holds, each name once."""

import ast
import pathlib

import krabi
from krabi import parity

import _oracle


def test_every_exported_name_exists_once():
    assert [name for name in krabi.__all__ if not hasattr(krabi, name)] == []
    assert len(set(krabi.__all__)) == len(krabi.__all__)


#: Dense matrices that only wrapped a sign vector: each parity is its ``*_signs`` vector,
#: and a caller that needs the matrix takes np.diag of it.
DENSE_WRAPPERS = ("generalized_parity", "bosonic_parity", "two_photon_parity", "partial_parity")


def test_parities_are_exported_only_as_sign_vectors():
    for name in DENSE_WRAPPERS:
        assert not hasattr(krabi, name) and not hasattr(parity, name), name
        assert name not in krabi.__all__, name
    for name in DENSE_WRAPPERS[:3]:
        assert f"{name}_signs" in krabi.__all__


#: The index-form sector layout and the per-sector construction: the tests' oracle alone.
ORACLE_NAMES = ("SectorDecomposition", "decompose", "partial_parity_signs", "_sector_label")


def test_the_index_form_layout_lives_only_in_the_tests_oracle():
    for name in ORACLE_NAMES:
        assert not hasattr(krabi, name) and not hasattr(parity, name), name
        assert name not in krabi.__all__, name
        assert hasattr(_oracle, name), name


def test_the_oracle_imports_nothing_it_checks():
    tree = ast.parse(pathlib.Path(_oracle.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert {m for m in modules if m.split(".")[0] == "krabi"} == {"krabi.errors"}
