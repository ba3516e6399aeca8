"""Hamiltonian assembly: hand-checked entries, symmetry, spectral facts."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from krabi.errors import HermiticityError, ShapeError
from krabi.fock import annihilation, number, power_k
from krabi.linalg import eig_hermitian
from krabi.model import BlockOperator, ModelParams, build_blocks, build_full, coupling_term

HAND = ModelParams(alpha=0.5, omega=1.0, g=1.0, k=1, dim=2)


def random_params(rng, k, dim):
    g = rng.random() * np.exp(2j * np.pi * rng.random())
    return ModelParams(alpha=2 * rng.random() - 1, omega=0.2 + 1.8 * rng.random(),
                       g=g, k=k, dim=dim)


class TestParams:
    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, omega=1.0, g=0.1, k=0, dim=4)

    def test_small_truncation_rejected(self):
        with pytest.raises(ShapeError):
            ModelParams(alpha=1.0, omega=1.0, g=0.1, k=3, dim=5)

    def test_nonpositive_omega_rejected(self):
        for omega in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                ModelParams(alpha=1.0, omega=omega, g=0.1, k=1, dim=4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=math.nan, omega=1.0, g=0.1, k=1, dim=4)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, omega=1.0, g=complex(math.inf, 0), k=1, dim=4)

    def test_replace(self):
        assert dataclasses.replace(HAND, alpha=0.0).alpha == 0.0
        assert dataclasses.replace(HAND, alpha=0.0).g == HAND.g
        assert type(dataclasses.replace(HAND, g=2).g) is complex
        with pytest.raises(ValueError, match="k must be a positive integer"):
            dataclasses.replace(HAND, k=0)


class TestBlocks:
    def test_hand_case_blocks(self):
        blocks = build_blocks(HAND)
        assert np.allclose(blocks.h_plus, [[0, 1], [1, 1]], rtol=0, atol=1e-15)
        assert np.allclose(blocks.h_minus, [[0, -1], [-1, 1]], rtol=0, atol=1e-15)
        assert blocks.alpha == 0.5 and type(blocks.alpha) is float

    def test_decoupled_limit(self):
        p = ModelParams(alpha=0.3, omega=1.7, g=0.0, k=2, dim=8)
        blocks = build_blocks(p)
        assert np.array_equal(blocks.h_plus, blocks.h_minus)
        assert np.allclose(blocks.h_plus, 1.7 * number(8), rtol=0, atol=1e-15)

    def test_complex_coupling_entry(self):
        p = ModelParams(alpha=0.0, omega=1.0, g=1j, k=2, dim=4)
        blocks = build_blocks(p)
        assert blocks.h_plus[0, 2] == pytest.approx(-1j * math.sqrt(2), abs=1e-15)
        assert blocks.h_plus[2, 0] == pytest.approx(1j * math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("seed,k,dim", [(0, 1, 12), (1, 2, 12), (2, 3, 18), (3, 4, 16)])
    def test_blocks_hermitian(self, seed, k, dim):
        blocks = build_blocks(random_params(np.random.default_rng(seed), k, dim))
        for block in (blocks.h_plus, blocks.h_minus):
            defect = np.linalg.norm(block - block.conj().T)
            assert defect <= 1e-13 * max(1.0, np.linalg.norm(block))

    @pytest.mark.parametrize("name", ["h_plus", "h_minus"])
    def test_blocks_held_to_the_eigensolver_rule(self, name):
        eye = np.eye(2)
        skew = {"h_plus": eye, "h_minus": eye, "alpha": 1.0,
                name: np.array([[0.0, 1.0], [0.0, 0.0]])}
        with pytest.raises(HermiticityError, match=rf"^matrix is not Hermitian: defect "
                           rf"1\.414e\+00 exceeds 1\.0e-12 \* \|\|{name}\|\| = 1\.000e-12$"):
            BlockOperator(**skew)
        # Roundoff well inside HERMITICITY_RTOL * ||block|| passes, as in eig_hermitian.
        nearly = np.array([[1.0, 1.0], [1.0 + 1e-14, 1.0]])
        stored = BlockOperator(**{**skew, name: nearly})
        assert np.array_equal(getattr(stored, name), nearly)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_refused_as_in_params(self, alpha):
        eye = np.eye(2)
        with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha}$"):
            BlockOperator(h_plus=eye, h_minus=eye, alpha=alpha)
        with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha}$"):
            ModelParams(alpha=alpha, omega=1.0, g=0.1, k=1, dim=4)

    def test_block_dimensions_must_agree(self):
        with pytest.raises(ShapeError, match="^block dimensions differ: 2, 3$"):
            BlockOperator(h_plus=np.eye(2), h_minus=np.eye(3), alpha=0.5)


class TestFullMatrix:
    def test_dephasing_spectrum_is_union_of_blocks(self):
        p = ModelParams(alpha=0.0, omega=1.0, g=0.4, k=2, dim=10)
        blocks = build_blocks(p)
        full = build_full(p)
        assert np.linalg.norm(full[:10, 10:]) == 0.0
        merged = np.sort(np.concatenate([
            eig_hermitian(blocks.h_plus)[0], eig_hermitian(blocks.h_minus)[0],
        ]))
        assert np.allclose(eig_hermitian(full)[0], merged, rtol=0, atol=1e-10)

    def test_hand_case_full_spectrum(self):
        w, _ = eig_hermitian(build_full(HAND))
        expected = np.sort([-0.5, 1.5, (1 - math.sqrt(8)) / 2, (1 + math.sqrt(8)) / 2])
        assert np.allclose(w, expected, rtol=0, atol=1e-12)

    def test_trace_comes_from_mode_only(self):
        p = ModelParams(alpha=0.9, omega=1.3, g=0.7j, k=2, dim=12)
        full = build_full(p)
        assert np.trace(full) == pytest.approx(2 * 1.3 * np.trace(number(12)), abs=1e-10)

    @pytest.mark.parametrize("seed,k,dim", [(4, 1, 10), (5, 2, 12), (6, 3, 12)])
    def test_full_hermitian(self, seed, k, dim):
        full = build_full(random_params(np.random.default_rng(seed), k, dim))
        assert np.linalg.norm(full - full.conj().T) <= 1e-13 * np.linalg.norm(full)

    @pytest.mark.parametrize("phi", [np.pi / 3, np.pi / 2])
    @pytest.mark.parametrize("k,dim", [(1, 16), (2, 16), (3, 18)])
    def test_coupling_phase_invariance(self, phi, k, dim):
        base = ModelParams(alpha=0.8, omega=1.0, g=0.5, k=k, dim=dim)
        rotated = dataclasses.replace(base, g=base.g * np.exp(1j * phi))
        w0 = eig_hermitian(build_full(base))[0]
        w1 = eig_hermitian(build_full(rotated))[0]
        assert np.max(np.abs(w0 - w1)) <= 1e-9


def ladder_coupling(params):
    """Oracle: conj(g)*a^k + g*(a^dag)^k from the ladder operators, a^k by matrix_power.
    The + 0.0 gives each zero part the sign +0.0, as the assembled coupling has it."""
    a_k = power_k(annihilation(params.dim), params.k)
    return np.conj(params.g) * a_k + params.g * a_k.conj().T + 0.0


class TestCouplingOracle:
    """coupling_term is written from the amplitudes amp_p, with no operator product; the
    ladder operators of krabi.fock are its independent oracle."""

    GS = [-0.37, 0.41j, -0.3 + 0.2j]

    @pytest.mark.parametrize("g", GS, ids=["real", "imaginary", "complex"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_bitwise_equal_up_to_three_photons(self, k, g, extra):
        # matrix_power multiplies sqrt(p+1)*sqrt(p+2)*sqrt(p+3) left to right, as amp_p is.
        params = ModelParams(alpha=0.5, omega=1.0, g=g, k=k, dim=4 * k + extra)
        got, want = coupling_term(params), ladder_coupling(params)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("g", GS, ids=["real", "imaginary", "complex"])
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_within_four_ulp_from_four_photons(self, k, g):
        # From k = 4 on, matrix_power pairs the factors differently: the last bits differ.
        params = ModelParams(alpha=0.5, omega=1.0, g=g, k=k, dim=6 * k + 1)
        got = coupling_term(params).view(np.float64)
        want = ladder_coupling(params).view(np.float64)
        assert np.array_equal(got == 0, want == 0)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_zero_coupling_is_exact_zeros_where_the_amplitudes_overflow(self):
        w = coupling_term(ModelParams(alpha=1.0, omega=1.0, g=0.0, k=256, dim=512))
        assert w.shape == (512, 512) and not np.any(w.view(np.uint64))

    @pytest.mark.parametrize("g", [0.1, 0.1 + 0.05j, 0.1j], ids=["real", "complex", "imaginary"])
    def test_overflowing_blocks_raise_one_error_and_no_warning(self, g):
        # amp_p is inf from p = 139 on at k = 256, dim = 512; inf*0 would warn in a product.
        params = ModelParams(alpha=1.0, omega=1.0, g=g, k=256, dim=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="^h_plus contains non-finite entries$"):
                build_blocks(params)

    def test_zero_coupling_builds_where_the_amplitudes_overflow(self):
        params = ModelParams(alpha=1.0, omega=1.5, g=0.0, k=256, dim=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = build_blocks(params)
        diagonal = np.diag(1.5 * np.arange(512)).astype(complex)
        assert np.array_equal(blocks.h_plus, diagonal) and np.array_equal(blocks.h_minus, diagonal)
