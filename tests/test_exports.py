"""The package's export list names only what the package holds, each name once."""

import krabi
from krabi import parity


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
        assert f"{name}_signs" in krabi.__all__
    assert not hasattr(krabi.SectorDecomposition, "projector")
    assert hasattr(krabi.SectorDecomposition, "projector_diagonal")
