"""k-photon Rabi models on truncated Fock spaces.

Builds the k-photon Rabi Hamiltonian in block form, constructs the
generalized parity operator as its sign vector on the Fock space,
verifies that it solves the associated operator Riccati equation,
and uses it to block-diagonalize the model: sector spectra, parameter
sweeps and decoupled time evolution, each checked against full
diagonalization.
"""

from .errors import EigenSolverError, HermiticityError, ShapeError, SolutionError
from .fock import annihilation, creation, number, power_k
from .model import BlockOperator, ModelParams, build_blocks, build_full, coupling_term
from .parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from .riccati import (
    DEFAULT_TOLERANCE,
    VerificationReport,
    block_diagonalize,
    residual,
    similarity_transform,
    verify_involution_solution,
)
from .spectra import (
    EvolutionSpec,
    SweepSpec,
    evolve,
    ground_state,
    sector_spectrum,
    sweep,
    sweep_csv,
    trajectory_chunks,
    trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOperator",
    "DEFAULT_TOLERANCE",
    "EigenSolverError",
    "EvolutionSpec",
    "HermiticityError",
    "ModelParams",
    "ShapeError",
    "SolutionError",
    "SweepSpec",
    "VerificationReport",
    "annihilation",
    "block_diagonalize",
    "bosonic_parity_signs",
    "build_blocks",
    "build_full",
    "coupling_term",
    "creation",
    "evolve",
    "generalized_parity_signs",
    "ground_state",
    "number",
    "power_k",
    "residual",
    "sector_spectrum",
    "similarity_transform",
    "sweep",
    "sweep_csv",
    "trajectory_chunks",
    "trajectory_csv",
    "two_photon_parity_signs",
    "verify_involution_solution",
]
