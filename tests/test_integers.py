"""Every integer argument of the library goes through one check.

A bool, a float or a string is a ValueError whose message says the
argument "must be an integer", never a ShapeError, a TypeError from deep
inside numpy, or a silent reading of True as 1. numpy integers are
accepted and come back as Python ints.
"""

import numpy as np
import pytest

from krabi.errors import ShapeError
from krabi.fock import annihilation, number, power_k
from krabi.model import ModelParams
from krabi.parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from krabi.spectra import EvolutionSpec, SweepSpec, sector_spectrum

from _oracle import decompose, partial_parity_signs

BASE = ModelParams(alpha=0.5, omega=1.0, g=0.1, k=2, dim=8)
SD = decompose(2, 8)
STATE = np.eye(16)[0]

# name -> function of the one integer argument under test; each accepts 2.
ENTRY_POINTS = {
    "annihilation": annihilation,
    "number": number,
    "power_k": lambda x: power_k(annihilation(4), x),
    "decompose.k": lambda x: decompose(x, 8),
    "decompose.dim": lambda x: decompose(1, x),
    "ModelParams.k": lambda x: ModelParams(alpha=0.5, omega=1.0, g=0.1, k=x, dim=8),
    "ModelParams.dim": lambda x: ModelParams(alpha=0.5, omega=1.0, g=0.1, k=1, dim=x),
    "bosonic_parity_signs": bosonic_parity_signs,
    "two_photon_parity_signs": two_photon_parity_signs,
    "generalized_parity_signs.k": lambda x: generalized_parity_signs(x, 8),
    "generalized_parity_signs.dim": lambda x: generalized_parity_signs(1, x),
    "sector_of": SD.sector_of,
    "projector_diagonal": SD.projector_diagonal,
    "compress": lambda x: SD.compress(np.eye(8), x, 1),
    "partial_parity_signs": lambda x: partial_parity_signs(SD, x),
    "sector_spectrum.m": lambda x: sector_spectrum(BASE, x),
    "SweepSpec.steps": lambda x: SweepSpec(base=BASE, param="g", lo=0.0, hi=0.1, steps=x,
                                           levels=2),
    "SweepSpec.levels": lambda x: SweepSpec(base=BASE, param="g", lo=0.0, hi=0.1, steps=2,
                                            levels=x),
    "EvolutionSpec.steps": lambda x: EvolutionSpec(initial_state=STATE, dt=0.1, steps=x),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_non_integer_is_a_value_error(name, value):
    with pytest.raises(ValueError, match="must be an integer") as exc:
        ENTRY_POINTS[name](value)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_numpy_integer_is_accepted(name):
    ENTRY_POINTS[name](np.int64(2))


def test_model_params_store_python_ints():
    params = ModelParams(alpha=0.5, omega=1.0, g=0.1, k=np.int64(2), dim=np.int32(8))
    assert type(params.k) is int and type(params.dim) is int
    assert (params.k, params.dim) == (2, 8)


def test_specs_store_python_ints():
    sweep = SweepSpec(base=BASE, param="g", lo=0.0, hi=0.1, steps=np.int64(3),
                      levels=np.int64(2))
    evolution = EvolutionSpec(initial_state=STATE, dt=0.1, steps=np.int64(4))
    assert type(sweep.steps) is int and type(sweep.levels) is int
    assert type(evolution.steps) is int


# Both count levels and name the count "levels" in their message.
LEVEL_COUNTS = ["SweepSpec.levels", "sector_spectrum.m"]


@pytest.mark.parametrize("value", [0, 9])
@pytest.mark.parametrize("name", LEVEL_COUNTS)
def test_level_count_outside_one_to_dim_is_a_shape_error(name, value):
    with pytest.raises(ShapeError, match=rf"^levels must satisfy 1 <= levels <= dim = 8, "
                                         rf"got {value}$"):
        ENTRY_POINTS[name](value)
