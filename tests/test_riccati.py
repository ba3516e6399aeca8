"""Riccati residuals, verification, the similarity transform and decoupling."""

import math

import numpy as np
import pytest

from krabi.errors import ShapeError, SolutionError
from krabi.fock import annihilation, power_k
from krabi.linalg import eig_hermitian
from krabi.model import ModelParams, build_blocks, build_full
from krabi.parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from krabi.riccati import (
    _spectra_match,
    block_diagonalize,
    residual,
    similarity_transform,
    verify_involution_solution,
)

HAND = ModelParams(alpha=0.5, omega=1.0, g=1.0, k=1, dim=2)


def seeded_params(seed, k, dim):
    rng = np.random.default_rng(seed)
    g = rng.random() * np.exp(2j * np.pi * rng.random())
    return ModelParams(alpha=2 * (1 - rng.random()), omega=2 * (1 - rng.random()),
                       g=g, k=k, dim=dim)


class TestResidual:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generalized_parity_solves(self, k, seed):
        params = seeded_params(seed, k, 8 * k)
        blocks = build_blocks(params)
        x = np.diag(generalized_parity_signs(k, params.dim))
        # Each entry is alpha*(s_p^2 - 1) or +-conj(g)*amp_p*(s_p + s_(p+k)): exactly 0.
        assert not np.any(residual(blocks, x))

    def test_hand_case_intermediates(self):
        blocks = build_blocks(HAND)
        x = np.diag([1.0, -1.0]).astype(complex)
        assert np.array_equal(x @ blocks.h_plus, np.array([[0, 1], [-1, -1]], dtype=complex))
        assert np.array_equal(x @ blocks.h_plus, blocks.h_minus @ x)
        assert np.linalg.norm(residual(blocks, x)) == 0.0

    def test_bosonic_parity_failure_structure_even_k(self):
        # For even k the bosonic parity commutes with a^k, so the residual
        # collapses to (h_plus - h_minus) P = 2*(conj(g) a^k + g a^dag^k) P.
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.4j, k=2, dim=12)
        blocks = build_blocks(params)
        p_op = np.diag(bosonic_parity_signs(12))
        res = residual(blocks, p_op)
        a2 = power_k(annihilation(12), 2)
        w = np.conj(params.g) * a2 + params.g * a2.conj().T
        assert np.allclose(res, 2.0 * w @ p_op, rtol=0, atol=1e-13)
        assert abs(res[0, 2]) == pytest.approx(2 * abs(params.g) * math.sqrt(2), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            residual(build_blocks(HAND), np.eye(3))


class TestVerification:
    def test_generalized_parity_passes(self):
        params = seeded_params(3, 3, 24)
        x = np.diag(generalized_parity_signs(3, 24))
        report = verify_involution_solution(build_blocks(params), x, params=params)
        assert report.passed
        assert report.is_involution and report.intertwines
        assert report.relative_residual == 0.0

    def test_bosonic_parity_odd_k_passes(self):
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=3, dim=18)
        p_op = np.diag(bosonic_parity_signs(18))
        report = verify_involution_solution(build_blocks(params), p_op)
        assert report.passed

    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("g_mag", [0.1, 0.5])
    def test_bosonic_parity_even_k_fails(self, k, g_mag):
        params = ModelParams(alpha=1.0, omega=1.0, g=g_mag, k=k, dim=8 * k)
        p_op = np.diag(bosonic_parity_signs(params.dim))
        report = verify_involution_solution(build_blocks(params), p_op)
        assert not report.passed
        assert report.relative_residual >= 1e-3

    @pytest.mark.parametrize("k,expected", [(2, True), (6, True), (4, False), (8, False)])
    def test_two_photon_parity_modular_rule(self, k, expected):
        # Measured rule: the two-photon parity solves exactly for k % 4 == 2.
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=k, dim=6 * k)
        t_op = np.diag(two_photon_parity_signs(params.dim))
        report = verify_involution_solution(build_blocks(params), t_op)
        assert report.passed is expected
        if not expected:
            assert report.relative_residual >= 1e-3

    def test_intertwining_defect_independent_of_alpha(self):
        defects = []
        for alpha in (0.0, 0.7, 1.3):
            params = ModelParams(alpha=alpha, omega=1.0, g=0.4j, k=2, dim=16)
            report = verify_involution_solution(build_blocks(params),
                                                np.diag(two_photon_parity_signs(16)))
            defects.append(report.intertwining_defect)
        assert defects[0] == defects[1] == defects[2]

    def test_spectra_match_filled_for_passing_candidate(self):
        params = seeded_params(4, 2, 16)
        blocks, x = build_blocks(params), np.diag(generalized_parity_signs(2, 16))
        assert verify_involution_solution(blocks, x, params=params).passed
        assert _spectra_match(blocks, x) <= 1e-10

    def test_model_whose_squares_overflow_passes(self):
        # ||h_plus||^2 is past the float64 range at 1e200; the norms are not.
        params = ModelParams(alpha=1.0, omega=1e200, g=1e200, k=1, dim=4)
        blocks, x = build_blocks(params), np.diag(generalized_parity_signs(1, 4))
        report = verify_involution_solution(blocks, x)
        assert report.passed and report.relative_residual == 0.0
        assert report.involution_defect == report.intertwining_defect == 0.0
        assert _spectra_match(blocks, x) <= 1e-12 * 1e200

    def test_model_whose_norm_scale_overflows_is_refused(self):
        # ||h_plus|| and ||h_minus|| are past the float64 range; the identity is no
        # solution here (intertwining defect 4.0e307), and once the scale was inf it passed.
        blocks = build_blocks(ModelParams(alpha=1.0, omega=1e306, g=1e305, k=2, dim=40))
        with pytest.raises(ValueError, match=r"^the model overflows float64: \|\|h_plus\|\| "
                           r"\+ \|\|h_minus\|\| \+ 2\*\|alpha\|\*sqrt\(dim\) = inf$"):
            block_diagonalize(blocks, np.eye(40))
        with pytest.raises(ValueError, match="^the model overflows float64: "):
            verify_involution_solution(blocks, np.diag(generalized_parity_signs(2, 40)))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-10, -math.inf])
    def test_tolerance_outside_zero_to_finite_is_refused(self, tol):
        # An infinite tolerance accepted the identity for any model.
        blocks = build_blocks(seeded_params(6, 2, 12))
        with pytest.raises(ValueError, match=f"^tolerance must be finite and >= 0, got {tol}$"):
            block_diagonalize(blocks, np.eye(12), tol=tol)
        with pytest.raises(ValueError, match="^tolerance must be finite and >= 0, "):
            verify_involution_solution(blocks, np.diag(generalized_parity_signs(2, 12)), tol=tol)

    def test_report_json_keys(self):
        params = seeded_params(5, 1, 8)
        p_op = np.diag(bosonic_parity_signs(8))
        report = verify_involution_solution(build_blocks(params), p_op, params=params)
        data = report.to_dict()
        assert list(data) == ["residual_norm", "relative_residual", "involution_defect",
                              "intertwining_defect", "is_involution", "intertwines",
                              "passed", "spectra_match", "params", "tolerance"]
        assert data["passed"] is report.passed
        assert list(data["params"]) == ["alpha", "omega", "g_re", "g_im", "k", "dim"]


class TestSimilarityTransform:
    def test_two_by_two_sign_matrix(self):
        s, s_inv = similarity_transform(np.diag([1.0, -1.0]).astype(complex))
        assert np.array_equal(s @ s_inv, np.eye(4, dtype=complex))

    def test_identity_candidate(self):
        eye = np.eye(2, dtype=complex)
        s, s_inv = similarity_transform(eye)
        assert np.array_equal(s, np.block([[eye, -eye], [eye, eye]]))
        assert np.array_equal(s_inv, 0.5 * np.block([[eye, eye], [-eye, eye]]))

    @pytest.mark.parametrize("k,dim", [(1, 8), (2, 16), (5, 25)])
    def test_generalized_parity_inverse(self, k, dim):
        s, s_inv = similarity_transform(np.diag(generalized_parity_signs(k, dim)))
        assert np.linalg.norm(s @ s_inv - np.eye(2 * dim)) <= 1e-13

    def test_non_involution_rejected(self):
        with pytest.raises(SolutionError):
            similarity_transform(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize("e", [1e100, 1.3e154, 1e160, 1e200])
    def test_non_involution_whose_norm_overflows_rejected(self, e):
        # ||x @ x - I|| or ||x||^2 passes the float64 range: the check still holds.
        with pytest.raises(SolutionError, match="^x is not an involution; "):
            similarity_transform(np.array([[0.0, e], [e, 0.0]]))

    def test_non_hermitian_rejected(self):
        x = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)  # involution, not Hermitian
        assert np.array_equal(x @ x, np.eye(2, dtype=complex))
        with pytest.raises(SolutionError):
            similarity_transform(x)


class TestBlockDiagonalize:
    def test_rabi_blocks_closed_form(self):
        params = seeded_params(6, 2, 12)
        blocks = build_blocks(params)
        x = np.diag(generalized_parity_signs(2, 12))
        top, bottom = block_diagonalize(blocks, x)
        assert np.allclose(top, blocks.h_plus + params.alpha * x, rtol=0, atol=1e-14)
        assert np.allclose(bottom, blocks.h_minus - params.alpha * x, rtol=0, atol=1e-14)

    def test_dephasing_blocks_unchanged(self):
        params = ModelParams(alpha=0.0, omega=1.0, g=0.6, k=1, dim=10)
        blocks = build_blocks(params)
        top, bottom = block_diagonalize(blocks, np.diag(generalized_parity_signs(1, 10)))
        assert np.array_equal(top, blocks.h_plus)
        assert np.array_equal(bottom, blocks.h_minus)

    @pytest.mark.parametrize("seed,k,dim", [(7, 1, 16), (8, 2, 16), (9, 3, 24)])
    def test_conjugation_kills_off_diagonal_blocks(self, seed, k, dim):
        params = seeded_params(seed, k, dim)
        blocks = build_blocks(params)
        x = np.diag(generalized_parity_signs(k, dim))
        top, bottom = block_diagonalize(blocks, x)
        s, s_inv = similarity_transform(x)
        full = blocks.full_matrix()
        conjugated = s_inv @ full @ s
        off_upper = conjugated[:dim, dim:]
        off_lower = conjugated[dim:, :dim]
        norm = np.linalg.norm(full)
        assert np.linalg.norm(off_upper) <= 1e-11 * norm
        assert np.linalg.norm(off_lower) <= 1e-11 * norm
        assert np.allclose(conjugated[:dim, :dim], top, rtol=0, atol=1e-11 * norm)
        assert np.allclose(conjugated[dim:, dim:], bottom, rtol=0, atol=1e-11 * norm)

    def test_hand_case_block_eigenvalues(self):
        blocks = build_blocks(HAND)
        top, bottom = block_diagonalize(blocks, np.diag(generalized_parity_signs(1, 2)))
        assert np.allclose(eig_hermitian(top)[0], [-0.5, 1.5], rtol=0, atol=1e-12)
        expected = [(1 - math.sqrt(8)) / 2, (1 + math.sqrt(8)) / 2]
        assert np.allclose(eig_hermitian(bottom)[0], expected, rtol=0, atol=1e-12)
        merged = np.sort(np.concatenate([eig_hermitian(top)[0], eig_hermitian(bottom)[0]]))
        assert np.allclose(eig_hermitian(build_full(HAND))[0], merged, rtol=0, atol=1e-12)

    def test_unverified_candidate_rejected(self):
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=2, dim=12)
        with pytest.raises(SolutionError):
            block_diagonalize(build_blocks(params), np.diag(bosonic_parity_signs(12)))
