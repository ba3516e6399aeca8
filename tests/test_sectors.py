"""Sector-tridiagonal core against the dense blocks it replaces in evolve and spectrum.

The band (d, e), its verification of the parity and the sector eigensystem are
each compared with the dense route (build_blocks, verify_involution_solution,
block_diagonalize, eig_hermitian), which stays as the oracle.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from krabi import _sectors
from krabi.errors import EigenSolverError, SolutionError
from krabi.fock import annihilation, power_k
from krabi.model import ModelParams, build_blocks
from krabi.linalg import eig_hermitian
from krabi.parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from krabi.riccati import block_diagonalize, residual, verify_involution_solution
from krabi.spectra import (EvolutionSpec, SweepSpec, evolve, ground_state, sector_spectrum,
                           sweep)


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
    x = np.diag(generalized_parity_signs(params.k, params.dim))
    return block_diagonalize(build_blocks(params), x)


def dense_report(params, signs, tol):
    return verify_involution_solution(build_blocks(params), np.diag(signs.astype(complex)),
                                      tol=tol)


def assert_same_defects(band, dense):
    # Both routes form the residual from the same two defects: an exact zero on
    # the band is an exact zero on the dense route, and the rest agree to 1e-15.
    for key in ("residual_norm", "relative_residual", "involution_defect",
                "intertwining_defect"):
        got, expected = getattr(band, key), getattr(dense, key)
        assert got == expected == 0 if got == 0 else abs(got - expected) <= 1e-15 * expected, key


class TestBand:
    @pytest.mark.parametrize("k,dim", [(1, 9), (2, 17), (3, 30), (4, 64)])
    def test_band_is_the_dense_coupling(self, k, dim):
        params = ModelParams(alpha=0.3, omega=1.7, g=1.0, k=k, dim=dim)
        signs, d, e = _sectors.sector_band(params)
        a_k = power_k(annihilation(dim), k).real
        for b, sign in enumerate((1.0, -1.0)):
            diagonal = 1.7 * np.arange(dim) + sign * 0.3 * signs
            off = sign * np.diagonal(a_k, offset=k)
            for l in range(k):
                size = len(range(l, dim, k))
                assert np.array_equal(d[b, l, :size], diagonal[l::k])
                assert np.allclose(e[b, l, : size - 1], off[l::k], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k,dim", [(2, 17), (3, 31), (4, 66), (5, 13)])
    def test_pads_are_uncoupled_and_above_their_block(self, k, dim):
        params = seeded_params(dim, k, dim)
        _, d, e = _sectors.sector_band(params)
        n = -(-dim // k)
        assert d.shape == (2, k, n) and e.shape == (2, k, n - 1)
        short = ~_sectors.fock_mask(k, dim)[:, -1]
        assert short.sum() == k - dim % k
        assert not e[:, short, -1].any() and e[:, ~short, -1].all()
        for pads, block in zip(d[:, short, -1], dense_blocks(params)):
            assert np.all(pads > eig_hermitian(block)[0][-1])

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
        for tol in (0.0, 1e-10, 1e-3):
            band = _sectors.verify_band(params, signs, tol)
            dense = dense_report(params, signs, tol)
            assert band.passed == dense.passed == name.startswith("parity")
            assert (band.is_involution, band.intertwines) == (dense.is_involution,
                                                              dense.intertwines)
            assert_same_defects(band, dense)

    @pytest.mark.parametrize("tiny", [1e-170, 1e-300, 5e-324])
    def test_defect_whose_squares_underflow_fails(self, tiny):
        # |2j*tiny|^2 underflows to 0; the defect norms are rescaled, so they stay > 0.
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=2, dim=12)
        signs = generalized_parity_signs(2, 12).astype(complex)
        signs[5] += 1j * tiny
        for report in (_sectors.verify_band(params, signs, 0.0),
                       dense_report(params, signs, 0.0)):
            assert not report.passed and not report.is_involution
            assert report.involution_defect > 0 and report.residual_norm > 0

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
        assert dense_report(params, generalized_parity_signs(1, 4), 0.0).passed

    def test_band_entries_past_the_float64_range_raise(self):
        # |g|*amp_p overflows; so does the norm scale, which the verdict rule refuses.
        params = ModelParams(alpha=1.0, omega=1.0, g=1e308, k=2, dim=8)
        with pytest.raises(ValueError, match=r"^the model overflows float64: \|\|h_plus\|\| "
                           r"\+ \|\|h_minus\|\| \+ 2\*\|alpha\|\*sqrt\(dim\) = inf$"):
            _sectors.verify_band(params, generalized_parity_signs(2, 8), 0.0)

    def test_amplitudes_past_the_float64_range_raise_only_the_verdict(self):
        # amp_p is inf from p = 139 on; warnings are errors in this suite.
        params = ModelParams(alpha=1.0, omega=1.0, g=0.1, k=256, dim=512)
        signs = generalized_parity_signs(256, 512)
        for solve in (lambda: _sectors.verify_band(params, signs, 0.0),
                      lambda: sector_spectrum(params, 2), lambda: ground_state(params)):
            with pytest.raises(ValueError, match=r"^the model overflows float64: .* = inf$"):
                solve()

    @pytest.mark.parametrize("alpha,omega", [(1.0, 1.0), (-0.3, 1.7)])
    def test_zero_coupling_is_solved_where_the_amplitudes_overflow(self, alpha, omega):
        # amp_p is inf from p = 139 on, and a^k has inf entries, at k = 256, dim = 512; at
        # g = 0 both blocks are diagonal, so their levels are omega*p +- alpha*s_p exactly.
        params = ModelParams(alpha=alpha, omega=omega, g=0.0, k=256, dim=512)
        signs = generalized_parity_signs(256, 512)
        report = _sectors.verify_band(params, signs, 0.0)
        assert report.passed and report.residual_norm == 0.0

        def levels(alpha):
            diagonal = omega * np.arange(512)
            return np.sort(diagonal + alpha * signs), np.sort(diagonal - alpha * signs)

        top, bottom = levels(alpha)
        got = sector_spectrum(params, 512)
        assert np.array_equal(got[0], top) and np.array_equal(got[1], bottom)
        # sweep solves the dense decoupled blocks.
        rows = sweep(SweepSpec(base=params, param="alpha", lo=alpha, hi=alpha + 1, steps=2,
                               levels=512))
        assert rows == [(value, block, i, w) for value in (alpha, alpha + 1)
                        for block, ws in zip("+-", levels(value)) for i, w in enumerate(ws)]
        # The ground state is an eigenvector: evolution only turns its phase.
        state = ground_state(params)
        times, states = evolve(params, EvolutionSpec(initial_state=state, dt=0.5, steps=4))
        energy = min(top[0], bottom[0])
        assert np.max(np.abs(states - np.exp(-1j * energy * times)[:, None] * state)) <= 1e-15

    def test_amplitudes_whose_squares_overflow_are_solved(self):
        # amp_p reaches 4.8e165 at k = 125, dim = 512: finite, but ||amp||^2 is not.
        params = ModelParams(alpha=1.0, omega=1.0, g=0.1, k=125, dim=512)
        report = _sectors.verify_band(params, generalized_parity_signs(125, 512), 0.0)
        assert report.passed and report.residual_norm == 0.0
        top, bottom = _sectors.sector_levels(params)
        assert np.all(np.isfinite(top)) and np.all(np.isfinite(bottom))

    def test_zero_coupling_passes_any_sign_vector(self):
        params = ModelParams(alpha=0.5, omega=1.0, g=0.0, k=2, dim=12)
        band = _sectors.verify_band(params, bosonic_parity_signs(12), 0.0)
        assert band.passed and band.residual_norm == 0
        assert dense_report(params, bosonic_parity_signs(12), 0.0).passed

    def test_real_defects_of_non_sign_vectors_match(self):
        params = seeded_params(5, 2, 16)
        signs = generalized_parity_signs(2, 16).astype(float)
        signs[3] = 0.5
        band = _sectors.verify_band(params, signs, 1e-10)
        dense = dense_report(params, signs, 1e-10)
        assert not band.passed and not dense.passed
        assert_same_defects(band, dense)

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


def sector_signs(k, dim, epsilon):
    """s_p = epsilon_(p mod k) * (-1)^(p // k): the parity with sector l's sign flipped
    where epsilon_(l-1) = -1."""
    return np.asarray(epsilon)[np.arange(dim) % k] * generalized_parity_signs(k, dim)


class TestPerSectorParities:
    """Each of the 2^k per-sector sign choices solves the Riccati equation exactly, and
    among the +-1 diagonals nothing else does."""

    @pytest.mark.parametrize("variant", ["seeded", "alpha<0", "alpha=0"])
    @pytest.mark.parametrize("k,dim", [(1, 9), (2, 12), (2, 13), (3, 31), (4, 16), (4, 22)])
    def test_every_sign_choice_passes_at_tolerance_zero(self, k, dim, variant):
        params = seeded_params(dim, k, dim)
        alpha = {"seeded": params.alpha, "alpha<0": -params.alpha, "alpha=0": 0.0}[variant]
        params = dataclasses.replace(params, alpha=alpha)
        blocks = build_blocks(params)
        for epsilon in itertools.product((1, -1), repeat=k):
            signs = sector_signs(k, dim, epsilon)
            x = np.diag(signs.astype(complex))
            band = _sectors.verify_band(params, signs, 0.0)
            dense = verify_involution_solution(blocks, x, tol=0.0)
            assert band.passed and dense.passed, epsilon
            assert band.residual_norm == dense.residual_norm == 0.0
            assert not np.any(residual(blocks, x))

    def test_brute_force_finds_only_the_sector_signs(self):
        params = seeded_params(1, 2, 8)
        blocks = build_blocks(params)
        expected = {tuple(sector_signs(2, 8, e)) for e in itertools.product((1, -1), repeat=2)}
        band, dense = set(), set()
        for signs in itertools.product((1, -1), repeat=8):
            signs = np.array(signs)
            if _sectors.verify_band(params, signs, 0.0).passed:
                band.add(tuple(signs))
            if verify_involution_solution(blocks, np.diag(signs.astype(complex)), tol=0.0).passed:
                dense.add(tuple(signs))
        assert band == dense == expected and len(expected) == 4


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
        n = -(-dim // k)
        assert system.w.shape == (2, k, n) and system.u.shape == (2, k, n, n)
        held = _sectors.fock_mask(k, dim)
        assert held.sum(axis=1).tolist() == [len(range(l, dim, k)) for l in range(k)]
        assert held[:, :-1].all()  # pads only at the end of a sector
        for w, dense in zip(system.w, dense_blocks(params)):
            w_dense = eig_hermitian(dense)[0]
            scale = np.max(np.abs(w_dense))
            assert np.max(np.abs(np.sort(w[held]) - w_dense)) <= 1e-12 * scale
            assert np.all(w[~held] > w_dense[-1])
            assert np.all(np.diff(w, axis=1) >= 0)

    @pytest.mark.parametrize("k,dim,seed", [(1, 24, 8), (2, 33, 9), (3, 48, 10), (4, 64, 11)])
    def test_gauged_sector_vectors_are_block_eigenvectors(self, k, dim, seed):
        params = seeded_params(seed, k, dim)
        system = _sectors.sector_eigensystem(params)
        for w, u, dense in zip(system.w, system.u, dense_blocks(params)):
            scale = np.linalg.norm(dense, 2)
            for l in range(k):
                size = len(range(l, dim, k))
                assert np.allclose(u[l].T @ u[l], np.eye(u.shape[-1]), rtol=0, atol=1e-13)
                # A pad carries no weight of a level and is its own unit eigenvector.
                assert not np.any(u[l][size:, :size]) and not np.any(u[l][:size, size:])
                vectors = np.zeros((dim, size), dtype=complex)
                vectors[l::k] = u[l][:size, :size]
                vectors *= system.phase[:, None]
                assert np.max(np.abs(dense @ vectors - vectors * w[l, :size])) <= 1e-13 * scale

    def test_signs_are_the_generalized_parity(self):
        system = _sectors.sector_eigensystem(seeded_params(0, 3, 20))
        assert np.array_equal(system.signs, generalized_parity_signs(3, 20))

    @pytest.mark.parametrize("k,dim", [(1, 6), (2, 9), (3, 10), (4, 11)])
    def test_sector_layout_is_the_fock_slicing(self, k, dim):
        fock = np.arange(dim) + 1
        sectors = _sectors.to_sectors(fock, k)
        for l in range(k):
            size = len(range(l, dim, k))
            assert sectors[l, :size].tolist() == fock[l::k].tolist()
            assert not sectors[l, size:].any()
        assert np.array_equal(_sectors.fock_mask(k, dim), sectors > 0)
        n = sectors.shape[1]
        split = _sectors.sector_axes(np.arange(n * k), k)
        assert all(split[l, i] == i * k + l for l in range(k) for i in range(n))

    @pytest.mark.parametrize("solver,solve", [("eigh", "sector_eigensystem"),
                                              ("eigvalsh", "sector_levels")])
    def test_nonconvergence_raises_the_eigensolver_error(self, monkeypatch, solver, solve):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, solver, explode)
        with pytest.raises(EigenSolverError,
                           match="^Hermitian eigensolver failed to converge: did not converge$"):
            getattr(_sectors, solve)(seeded_params(1, 2, 9))
