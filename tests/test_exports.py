"""The package's export list names only what the package holds, each name once."""

import krabi


def test_every_exported_name_exists_once():
    assert [name for name in krabi.__all__ if not hasattr(krabi, name)] == []
    assert len(set(krabi.__all__)) == len(krabi.__all__)
