"""Sector decomposition and parity operators.

The sector core's band (d, e), built from the closed-form amplitudes amp_p,
is checked entrywise against an independent route: projector
compression of the gauge-rotated dense decoupled blocks, whose a^dag a and
a^k leave no cross-sector blocks. The generalized parity, built in the
closed form (-1)^(p // k), is checked against the paper's per-sector
construction and against the dedicated k = 1 and k = 2 parities, and those
against the papers' formulas (-1)^n and (-1)^(n(n-1)/2) in Python integers.
One kernel builds all three, (-1)^(p // j); the family's rule, that it
solves the k-photon Riccati equation exactly when j divides k and k/j is odd,
is checked on the band and on the dense blocks. Every parity is a sign
vector; the matrix checks take np.diag of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krabi import _sectors
from krabi.errors import ShapeError
from krabi.fock import annihilation, creation, power_k
from krabi.model import ModelParams, build_blocks
from krabi.parity import (
    _floor_signs,
    bosonic_parity_signs,
    generalized_parity_signs,
    two_photon_parity_signs,
)
from krabi.riccati import DEFAULT_TOLERANCE, block_diagonalize, verify_involution_solution

from _oracle import decompose, partial_parity_signs


class TestDecompose:
    def test_two_photon_sectors(self):
        sd = decompose(2, 8)
        assert sd.members[0].tolist() == [0, 2, 4, 6]
        assert sd.members[1].tolist() == [1, 3, 5, 7]

    def test_single_photon_is_whole_space(self):
        sd = decompose(1, 5)
        assert len(sd.members) == 1
        assert sd.members[0].tolist() == [0, 1, 2, 3, 4]

    def test_three_photon_middle_sector(self):
        sd = decompose(3, 9)
        assert sd.members[1].tolist() == [1, 4, 7]

    def test_index_map_matches_members(self):
        sd = decompose(3, 10)
        for l in range(1, 4):
            for n, p in enumerate(sd.members[l - 1]):
                assert sd.sector_of(int(p)) == (n, l)

    @pytest.mark.parametrize("p", [-1, 10, 2.0, True, "3"])
    def test_index_map_rejects_indices_outside_the_space(self, p):
        with pytest.raises(ValueError, match="Fock index"):
            decompose(3, 10).sector_of(p)

    def test_index_map_accepts_numpy_integers(self):
        assert decompose(3, 10).sector_of(np.int64(7)) == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=1, max_value=6), extra=st.integers(min_value=0, max_value=40))
    def test_sectors_partition_every_index(self, k, extra):
        dim = 2 * k + extra
        sd = decompose(k, dim)
        seen = np.concatenate(sd.members)
        assert np.array_equal(np.sort(seen), np.arange(dim))
        assert sum(sd.sector_dims) == dim
        for p in range(dim):
            n, l = sd.sector_of(p)
            assert 1 <= l <= k and p == k * n + l - 1

    def test_resolution_of_identity_exact(self):
        sd = decompose(4, 21)
        total = sum(sd.projector_diagonal(l) for l in range(1, 5))
        assert np.array_equal(total, np.ones(21, dtype=np.int64))

    def test_projector_orthogonality_exact(self):
        sd = decompose(3, 12)
        for l in range(1, 4):
            for m in range(1, 4):
                # Diagonal projectors multiply entrywise.
                product = sd.projector_diagonal(l) * sd.projector_diagonal(m)
                if l == m:
                    assert np.array_equal(product, sd.projector_diagonal(l))
                else:
                    assert not product.any()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            decompose(0, 8)
        with pytest.raises(ShapeError):
            decompose(3, 5)
        with pytest.raises(ValueError):
            decompose(2, 8).projector_diagonal(3)


class TestRestrictedOps:
    """Operators restricted to one sector: the sector core's band (d, e)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("dim", [None, 64])
    def test_formulas_match_projector_compression(self, k, dim):
        dim = 2 * k + 3 if dim is None else dim
        params = ModelParams(alpha=0.7, omega=1.3, g=0.8 * np.exp(2.3j), k=k, dim=dim)
        sd = decompose(k, dim)
        _, d, e = _sectors.sector_band(params)
        phase = _sectors.gauge(params.g, k, dim)
        blocks = block_diagonalize(build_blocks(params), np.diag(generalized_parity_signs(k, dim)))
        for b, block in enumerate(blocks):
            gauged = phase.conj()[:, None] * block * phase
            for l in range(1, k + 1):
                size = sd.sector_dims[l - 1]
                sector = sd.compress(gauged, l, l)
                off = e[b, l - 1, : size - 1]
                pairs = [(d[b, l - 1, :size], np.diagonal(sector)),
                         (off, np.diagonal(sector, 1)), (off, np.diagonal(sector, -1)),
                         (np.triu(sector, 2), 0), (np.tril(sector, -2), 0)]
                for got, expected in pairs:
                    assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cross_sector_blocks_vanish(self, k):
        dim = 6 * k + 1
        sd = decompose(k, dim)
        n_full = creation(dim) @ annihilation(dim)
        a_k = power_k(annihilation(dim), k)
        for l in range(1, k + 1):
            for m in range(1, k + 1):
                if l == m:
                    continue
                assert np.linalg.norm(sd.compress(n_full, l, m)) <= 1e-13
                assert np.linalg.norm(sd.compress(a_k, l, m)) <= 1e-13


class TestPartialParity:
    @pytest.mark.parametrize("k,dim", [(1, 6), (2, 9), (4, 17), (6, 23)])
    def test_parity_properties(self, k, dim):
        sd = decompose(k, dim)
        a_k = power_k(annihilation(dim), k)
        for l in range(1, k + 1):
            signs = partial_parity_signs(sd, l)
            assert np.array_equal(signs * signs, np.ones_like(signs))
            n_diag = sd.members[l - 1]
            assert np.array_equal(n_diag * signs, signs * n_diag)
            j_l = np.diag(signs)
            a_l = sd.compress(a_k, l, l)
            assert np.array_equal(j_l @ a_l @ j_l, -a_l)

    def test_sector_label_out_of_range(self):
        sd = decompose(2, 8)
        with pytest.raises(ValueError):
            partial_parity_signs(sd, 0)
        with pytest.raises(ValueError):
            partial_parity_signs(sd, 3)


def assert_is_the_per_sector_construction(k, dim):
    """The closed form (-1)^(p // k) equals the paper's construction: each sector's
    partial parity signs (-1)^n placed on its Fock indices."""
    sd = decompose(k, dim)
    expected = np.zeros(dim, dtype=np.int64)
    for l in range(1, k + 1):
        expected[sd.members[l - 1]] = partial_parity_signs(sd, l)
    signs = generalized_parity_signs(k, dim)
    assert signs.dtype == np.int64 and np.array_equal(signs, expected)


class TestGeneralizedParity:
    def test_k1_is_bosonic_parity(self):
        assert np.array_equal(generalized_parity_signs(1, 17), bosonic_parity_signs(17))

    def test_k2_signs_and_two_photon_parity(self):
        signs = generalized_parity_signs(2, 8)
        assert signs.tolist() == [1, 1, -1, -1, 1, 1, -1, -1]
        assert np.array_equal(signs, two_photon_parity_signs(8))

    def test_k3_signs(self):
        assert generalized_parity_signs(3, 9).tolist() == [1, 1, 1, -1, -1, -1, 1, 1, 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_floor_sign_shortcut_agrees(self, k, ragged):
        dim = 5 * k + 1 if ragged else 2 * k
        assert_is_the_per_sector_construction(k, dim)

    @pytest.mark.parametrize("k,dim", [(125, 512), (256, 512)])
    def test_floor_sign_shortcut_agrees_at_large_k(self, k, dim):
        assert_is_the_per_sector_construction(k, dim)

    @pytest.mark.parametrize("k,dim", [(1, 8), (2, 12), (3, 9), (5, 21)])
    def test_involution_and_hermiticity(self, k, dim):
        x = np.diag(generalized_parity_signs(k, dim))
        assert np.array_equal(x @ x, np.eye(dim, dtype=complex))
        assert np.array_equal(x, x.conj().T)

    @pytest.mark.parametrize("k,dim", [(1, 10), (2, 12), (3, 15), (4, 16)])
    def test_anticommutes_with_k_step_lowering(self, k, dim):
        x = np.diag(generalized_parity_signs(k, dim))
        a_k = power_k(annihilation(dim), k)
        assert np.array_equal(x @ a_k @ x, -a_k)

    @pytest.mark.parametrize("seed,k,dim", [(0, 1, 12), (1, 2, 16), (2, 3, 18), (3, 6, 24)])
    def test_swaps_rabi_blocks(self, seed, k, dim):
        rng = np.random.default_rng(seed)
        g = rng.random() * np.exp(2j * np.pi * rng.random())
        blocks = build_blocks(ModelParams(alpha=rng.random(), omega=0.5 + rng.random(),
                                          g=g, k=k, dim=dim))
        x = np.diag(generalized_parity_signs(k, dim))
        conjugated = x @ blocks.h_plus @ x
        assert np.allclose(conjugated, blocks.h_minus, rtol=0,
                           atol=1e-12 * max(1.0, np.linalg.norm(blocks.h_plus)))


class TestSpecialParities:
    def test_bosonic_parity_signs(self):
        assert bosonic_parity_signs(4).tolist() == [1, -1, 1, -1]

    def test_two_photon_parity_signs(self):
        assert two_photon_parity_signs(5).tolist() == [1, 1, -1, -1, 1]

    def test_two_photon_equals_generalized_up_to_256(self):
        for dim in (4, 64, 256):
            assert np.array_equal(two_photon_parity_signs(dim), generalized_parity_signs(2, dim))

    def test_small_dim_rejected(self):
        with pytest.raises(ShapeError):
            bosonic_parity_signs(1)
        with pytest.raises(ShapeError):
            two_photon_parity_signs(1)


class TestPapersFormulas:
    """The bosonic and two-photon parities against the papers' formulas, in Python integers."""

    @pytest.mark.parametrize("build,formula", [
        (bosonic_parity_signs, lambda n: (-1) ** n),
        (two_photon_parity_signs, lambda n: (-1) ** (n * (n - 1) // 2)),
    ], ids=["bosonic", "two-photon"])
    @pytest.mark.parametrize("dims", [range(2, 301), [200000]], ids=["2-300", "200000"])
    def test_signs_are_the_formula(self, build, formula, dims):
        expected = [formula(n) for n in range(max(dims))]
        for dim in dims:
            signs = build(dim)
            assert signs.dtype == np.int64 and signs.tolist() == expected[:dim]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_two_photon_parity_where_the_generalized_parity_refuses(self, dim):
        with pytest.raises(ShapeError):
            generalized_parity_signs(2, dim)
        assert two_photon_parity_signs(dim).tolist() == [1, 1, -1][:dim]


def solves(j, k):
    """The family's rule: (-1)^(p // j) is the k-photon parity, s_(p+k) = -s_p for every p,
    exactly when j divides k and k/j is odd."""
    return k % j == 0 and (k // j) % 2 == 1


class TestFamilyRule:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_band_and_dense_verdicts_follow_the_rule(self, k):
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=k, dim=24)
        blocks = build_blocks(params)
        for j in range(1, 9):
            signs = _floor_signs(j, params.dim)
            band = _sectors.verify_band(params, signs, DEFAULT_TOLERANCE)
            dense = verify_involution_solution(blocks, np.diag(signs), params=params)
            assert band.passed is dense.passed is solves(j, k)
