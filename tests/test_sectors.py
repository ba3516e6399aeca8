"""Sector-tridiagonal core against the dense blocks it replaces in evolve and spectrum.

The band, its verification of the parity and the sector eigensystem are
each compared with the dense route (build_blocks, verify_involution_solution,
block_diagonalize, eig_hermitian), which stays as the oracle.
"""

import dataclasses

import numpy as np
import pytest

from krabi import _sectors
from krabi.errors import SolutionError
from krabi.fock import annihilation, power_k
from krabi.model import ModelParams, build_blocks
from krabi.linalg import eig_hermitian
from krabi.parity import (bosonic_parity_signs, generalized_parity, generalized_parity_signs,
                          two_photon_parity_signs)
from krabi.riccati import block_diagonalize, verify_involution_solution


def seeded_params(seed, k, dim):
    rng = np.random.default_rng(seed)
    return ModelParams(alpha=rng.random(), omega=0.5 + rng.random(),
                       g=rng.random() * np.exp(2j * np.pi * rng.random()), k=k, dim=dim)


def flipped(k, dim):
    signs = generalized_parity_signs(k, dim)
    signs[dim // 2] *= -1
    return signs


# (name, k, dim, signs): the generalized parity passes, the rest fail.
CANDIDATES = [
    ("parity-k1", 1, 16, generalized_parity_signs(1, 16)),
    ("parity-k2-odd-dim", 2, 33, generalized_parity_signs(2, 33)),
    ("parity-k3", 3, 48, generalized_parity_signs(3, 48)),
    ("parity-k4-odd-dim", 4, 70, generalized_parity_signs(4, 70)),
    ("bosonic-k2", 2, 24, bosonic_parity_signs(24)),
    ("two-photon-k3", 3, 30, two_photon_parity_signs(30)),
    ("flipped-k1", 1, 20, flipped(1, 20)),
    ("flipped-k4", 4, 64, flipped(4, 64)),
]


def dense_blocks(params):
    """The oracle: the decoupled blocks of the dense route."""
    return block_diagonalize(build_blocks(params), generalized_parity(params.k, params.dim))


def dense_report(params, signs, tol):
    return verify_involution_solution(build_blocks(params), np.diag(signs.astype(complex)),
                                      tol=tol)


def assert_same_defects(band, dense, params):
    # Within 1e-12 of the dense value, or of the residual's scale where that is
    # larger: the dense residual rounds alpha + s_p*omega*p on its diagonal, where
    # the band's is exactly alpha*(s_p^2 - 1).
    blocks = build_blocks(params)
    scale = (np.linalg.norm(blocks.h_plus) + np.linalg.norm(blocks.h_minus)
             + 2 * np.linalg.norm(blocks.coupling))
    for key, floor in (("residual_norm", scale), ("relative_residual", 1.0),
                       ("involution_defect", scale), ("intertwining_defect", scale)):
        got, expected = getattr(band, key), getattr(dense, key)
        assert abs(got - expected) <= 1e-12 * max(expected, floor), key


def sorted_levels(sectors):
    return np.sort(np.concatenate([w for w, _ in sectors]))


class TestBand:
    @pytest.mark.parametrize("k,dim", [(1, 9), (2, 17), (3, 30), (4, 64)])
    def test_band_is_the_dense_coupling(self, k, dim):
        params = ModelParams(alpha=0.3, omega=1.7, g=1.0, k=k, dim=dim)
        diagonal, amplitudes = _sectors.band(params)
        a_k = power_k(annihilation(dim), k).real
        assert np.array_equal(diagonal, 1.7 * np.arange(dim))
        expected = np.diagonal(a_k, offset=k)
        assert np.allclose(amplitudes, expected, rtol=1e-13, atol=0)
        assert amplitudes.size == dim - k

    def test_gauge_links_sector_neighbours_by_the_phase_of_g(self):
        g = 0.3 * np.exp(3.1j)
        for k in (1, 4):
            phase = _sectors.gauge(g, k, 4096)
            assert np.max(np.abs(np.abs(phase) - 1)) <= 4e-16
            assert np.max(np.abs(phase[k:] / phase[:-k] - g / abs(g))) <= 1e-15
            assert phase[0] == 1
            assert np.allclose(phase[: k], np.exp(3.1j * np.arange(k) / k), rtol=0, atol=1e-15)


class TestVerifyBand:
    @pytest.mark.parametrize("alpha", [0.7, -0.4, 0.0])
    @pytest.mark.parametrize("name,k,dim,signs", CANDIDATES, ids=[c[0] for c in CANDIDATES])
    def test_matches_dense_verification(self, name, k, dim, signs, alpha):
        params = dataclasses.replace(seeded_params(dim, k, dim), alpha=alpha)
        band = _sectors.verify_band(params, signs, 1e-10)
        dense = dense_report(params, signs, 1e-10)
        assert band.passed == dense.passed == name.startswith("parity")
        assert (band.is_involution, band.intertwines) == (dense.is_involution, dense.intertwines)
        assert_same_defects(band, dense, params)

    def test_report_carries_the_params(self):
        params = seeded_params(3, 2, 12)
        report = _sectors.verify_band(params, generalized_parity_signs(2, 12), 0.0)
        assert report.params is params and report.passed
        assert report.to_dict()["params"]["g_im"] == params.g.imag

    def test_model_whose_squares_overflow_passes_exactly(self):
        # ||omega*p||^2 and ||g*amp||^2 are past the float64 range at 1e200; the norms are not.
        params = ModelParams(alpha=1.0, omega=1e200, g=1e200, k=1, dim=4)
        report = _sectors.verify_band(params, generalized_parity_signs(1, 4), 0.0)
        assert report.passed and report.residual_norm == 0.0
        assert dense_report(params, generalized_parity_signs(1, 4), 1e-10).passed

    def test_band_entries_past_the_float64_range_raise(self):
        params = ModelParams(alpha=1.0, omega=1.0, g=1e308, k=2, dim=8)
        with pytest.raises(ValueError, match=r"^the band overflows float64: omega\*\(dim - 1\) "
                           r"= 7\.000e\+00, \|g\|\*amp_\(dim-k-1\) = inf$"):
            _sectors.verify_band(params, generalized_parity_signs(2, 8), 0.0)

    def test_zero_coupling_passes_any_sign_vector(self):
        params = ModelParams(alpha=0.5, omega=1.0, g=0.0, k=2, dim=12)
        band = _sectors.verify_band(params, bosonic_parity_signs(12), 1e-10)
        assert band.passed and band.residual_norm == 0
        assert dense_report(params, bosonic_parity_signs(12), 1e-10).passed

    def test_real_defects_of_non_sign_vectors_match(self):
        params = seeded_params(5, 2, 16)
        signs = generalized_parity_signs(2, 16).astype(float)
        signs[3] = 0.5
        band = _sectors.verify_band(params, signs, 1e-10)
        dense = dense_report(params, signs, 1e-10)
        assert not band.passed and not dense.passed
        assert_same_defects(band, dense, params)

    @pytest.mark.parametrize("name,k,dim,signs", [c for c in CANDIDATES if "parity" not in c[0]],
                             ids=[c[0] for c in CANDIDATES if "parity" not in c[0]])
    def test_failing_candidate_raises_the_dense_error(self, monkeypatch, name, k, dim, signs):
        params = seeded_params(dim, k, dim)
        with pytest.raises(SolutionError) as dense:
            block_diagonalize(build_blocks(params), np.diag(signs.astype(complex)), tol=0.0)
        monkeypatch.setattr(_sectors, "generalized_parity_signs", lambda *_: signs)
        with pytest.raises(SolutionError) as core:
            _sectors.sector_eigensystem(params)
        assert str(core.value) == str(dense.value)

    @pytest.mark.parametrize("bad", [2.0, 1j, -1.0 + 1e-15, 0.0])
    def test_real_signs_rejects_anything_but_real_plus_minus_one(self, bad):
        signs = generalized_parity_signs(2, 8).astype(complex)
        signs[5] = bad
        with pytest.raises(SolutionError, match="real"):
            _sectors.real_signs(signs)

    def test_real_signs_of_the_parity(self):
        signs = _sectors.real_signs(generalized_parity_signs(3, 10))
        assert signs.dtype == np.float64
        assert np.array_equal(signs, generalized_parity_signs(3, 10))


class TestSectorEigensystem:
    CASES = [(1, 16, 0), (1, 256, 1), (2, 17, 2), (2, 128, 3), (3, 31, 4), (3, 96, 5),
             (4, 64, 6), (4, 130, 7)]

    @pytest.mark.parametrize("variant", ["seeded", "g=0", "alpha<0"])
    @pytest.mark.parametrize("k,dim,seed", CASES)
    def test_levels_match_dense_blocks(self, k, dim, seed, variant):
        params = seeded_params(seed, k, dim)
        if variant == "g=0":
            params = dataclasses.replace(params, g=0.0)
        elif variant == "alpha<0":
            params = dataclasses.replace(params, alpha=-params.alpha)
        system = _sectors.sector_eigensystem(params)
        for sectors, dense in zip(system.sectors, dense_blocks(params)):
            w_dense = eig_hermitian(dense)[0]
            scale = np.max(np.abs(w_dense))
            assert np.max(np.abs(sorted_levels(sectors) - w_dense)) <= 1e-12 * scale
            assert [w.size for w, _ in sectors] == [len(range(l, dim, k)) for l in range(k)]

    @pytest.mark.parametrize("k,dim,seed", [(1, 24, 8), (2, 33, 9), (3, 48, 10), (4, 64, 11)])
    def test_gauged_sector_vectors_are_block_eigenvectors(self, k, dim, seed):
        params = seeded_params(seed, k, dim)
        system = _sectors.sector_eigensystem(params)
        for sectors, dense in zip(system.sectors, dense_blocks(params)):
            scale = np.linalg.norm(dense, 2)
            for l, (w, u) in enumerate(sectors):
                vectors = np.zeros((dim, w.size), dtype=complex)
                vectors[l::k] = u
                vectors *= system.phase[:, None]
                assert np.allclose(u.T @ u, np.eye(w.size), rtol=0, atol=1e-13)
                assert np.max(np.abs(dense @ vectors - vectors * w)) <= 1e-13 * scale

    def test_signs_are_the_generalized_parity(self):
        system = _sectors.sector_eigensystem(seeded_params(0, 3, 20))
        assert np.array_equal(system.signs, generalized_parity_signs(3, 20))
