"""Sector spectra, sweeps and block-frame evolution against full-matrix oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import krabi
from krabi import _sectors, cli, linalg, model, parity, riccati, spectra
from krabi.errors import ShapeError, SolutionError
from krabi.linalg import eig_hermitian
from krabi.model import ModelParams, build_blocks, build_full
from krabi.parity import generalized_parity_signs
from krabi.riccati import block_diagonalize
from krabi.spectra import (
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

HAND = ModelParams(alpha=0.5, omega=1.0, g=1.0, k=1, dim=2)


def full_propagated(params, state, t):
    """Oracle: evolve through the eigendecomposition of the full matrix."""
    w, v = eig_hermitian(build_full(params))
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ state))


def per_line_trajectory_csv(times, states):
    """Reference formatter: one f-string per CSV row."""
    lines = ["t,component_index,re,im"]
    for t, state in zip(times, states):
        for idx, z in enumerate(state):
            lines.append(f"{t:.16e},{idx},{z.real:.16e},{z.imag:.16e}")
    return "\n".join(lines) + "\n"


def seeded_params(seed, k, dim):
    rng = np.random.default_rng(seed)
    return ModelParams(alpha=rng.random(), omega=0.5 + rng.random(),
                       g=rng.random() * np.exp(2j * np.pi * rng.random()), k=k, dim=dim)


def random_state(seed, dim):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    return state / np.linalg.norm(state)


def forbid(monkeypatch, names, caller):
    """Make each named function raise in every krabi module that binds it."""
    def dense(*_args, **_kwargs):
        raise AssertionError(f"dense path called by {caller}")

    for module in (krabi, model, parity, riccati, linalg, spectra, cli, _sectors):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dense)


def three_spans(dim):
    """A step count whose grid takes three spans of evolve's propagation."""
    span = spectra._steps_per(2 * dim)[1]
    return 2 * span + span // 2


def whole_grid_states(params, state, dt, steps):
    """Reference: the sector propagation of evolve over the whole grid, one sector at
    a time, each solved as its own unpadded tridiagonal, with fresh temporaries."""
    k, dim = params.k, params.dim
    signs = generalized_parity_signs(k, dim).astype(float)
    phase = _sectors.gauge(params.g, k, dim)
    diagonal = params.omega * np.arange(dim, dtype=np.float64)
    # amp_p = sqrt(p+1)*...*sqrt(p+k), multiplied left to right as model._amplitudes does
    # for the band and the dense blocks alike, so that the states are bitwise comparable.
    # np.diagonal(power_k(a, k), k) is no such reference: from k = 4 on it pairs the
    # factors as (sqrt(p+1)*sqrt(p+2))*(sqrt(p+3)*sqrt(p+4)), an ulp or so away.
    amplitudes = np.prod([np.sqrt(np.arange(j + 1, dim - k + j + 1, dtype=np.float64))
                          for j in range(k)], axis=0)
    upper, lower = state[:dim], state[dim:]
    times = np.arange(steps + 1, dtype=np.float64) * dt
    blocks = []
    for sign, frame in zip((1.0, -1.0),
                           ((upper + signs * lower) / 2, (lower - signs * upper) / 2)):
        block_diagonal = diagonal + sign * params.alpha * signs
        block_coupling = sign * (abs(params.g) * amplitudes)
        gauged = np.conj(phase) * frame
        trajectory = np.zeros((dim, times.size), dtype=complex)
        for l in range(k):
            off = block_coupling[l::k]
            w, u = np.linalg.eigh(np.diag(block_diagonal[l::k]) + np.diag(off, 1)
                                  + np.diag(off, -1))
            coeff = u.T @ gauged[l::k]
            table = coeff[:, None] * np.exp(-1j * np.outer(w, times))
            trajectory[l::k] = (u @ table.view(np.float64)).view(np.complex128)
        blocks.append(trajectory * phase[:, None])
    block_top, block_bottom = blocks
    column = signs[:, None]
    expected = np.ascontiguousarray(np.hstack([(block_top - column * block_bottom).T,
                                               (column * block_top + block_bottom).T]))
    expected[0] = state
    return expected


class TestSectorSpectrum:
    def test_hand_case(self):
        w_top, w_bottom = sector_spectrum(HAND, 2)
        assert np.allclose(w_top, [-0.5, 1.5], rtol=0, atol=1e-12)
        expected = [(1 - math.sqrt(8)) / 2, (1 + math.sqrt(8)) / 2]
        assert np.allclose(w_bottom, expected, rtol=0, atol=1e-12)

    def test_free_limit_doubly_degenerate(self):
        params = ModelParams(alpha=0.0, omega=1.3, g=0.0, k=1, dim=6)
        w_top, w_bottom = sector_spectrum(params, 6)
        ladder = 1.3 * np.arange(6)
        assert np.allclose(w_top, ladder, rtol=0, atol=1e-13)
        assert np.allclose(w_bottom, ladder, rtol=0, atol=1e-13)
        full = eig_hermitian(build_full(params))[0]
        assert np.allclose(full, np.sort(np.concatenate([ladder, ladder])),
                           rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed,k,dim", [(0, 1, 16), (1, 2, 16), (2, 3, 24)])
    def test_merge_reproduces_full_spectrum(self, seed, k, dim):
        rng = np.random.default_rng(seed)
        params = ModelParams(alpha=rng.random(), omega=0.5 + rng.random(),
                             g=rng.random() * np.exp(2j * np.pi * rng.random()),
                             k=k, dim=dim)
        w_top, w_bottom = sector_spectrum(params, dim)
        merged = np.sort(np.concatenate([w_top, w_bottom]))
        full = eig_hermitian(build_full(params))[0]
        assert np.max(np.abs(merged - full)) <= 1e-9

    def test_too_many_levels_rejected(self):
        with pytest.raises(ShapeError):
            sector_spectrum(HAND, 3)

    CASES = [(1, 16, 0), (1, 256, 1), (2, 17, 2), (2, 128, 3), (3, 31, 4), (3, 96, 5),
             (4, 64, 6), (4, 130, 7)]

    @pytest.mark.parametrize("variant", ["seeded", "g=0", "alpha<0", "alpha=0"])
    @pytest.mark.parametrize("k,dim,seed", CASES)
    def test_matches_dense_blocks_and_full_matrix(self, k, dim, seed, variant):
        params = seeded_params(seed, k, dim)
        if variant == "g=0":
            params = dataclasses.replace(params, g=0.0)
        elif variant == "alpha<0":
            params = dataclasses.replace(params, alpha=-params.alpha)
        elif variant == "alpha=0":
            params = dataclasses.replace(params, alpha=0.0)
        levels = sector_spectrum(params, dim)
        full = eig_hermitian(build_full(params))[0]
        scale = np.max(np.abs(full))
        x = np.diag(generalized_parity_signs(k, dim))
        oracle = block_diagonalize(build_blocks(params), x)
        for got, block in zip(levels, oracle):
            assert np.max(np.abs(got - eig_hermitian(block)[0])) <= 1e-12 * scale
        assert np.max(np.abs(np.sort(np.concatenate(levels)) - full)) <= 1e-12 * scale
        assert [w.tolist() for w in sector_spectrum(params, 1)] == [[w[0]] for w in levels]

    def test_never_touches_the_dense_blocks(self, monkeypatch):
        params = seeded_params(12, 3, 31)
        expected = sector_spectrum(params, 7)
        forbid(monkeypatch, ("build_blocks", "block_diagonalize", "eig_hermitian"),
               "sector_spectrum")
        for got, want in zip(sector_spectrum(params, 7), expected):
            assert np.array_equal(got, want)

    def test_flipped_sign_raises_the_dense_error(self, monkeypatch):
        params = seeded_params(13, 2, 24)
        signs = generalized_parity_signs(2, 24)
        signs[11] *= -1
        with pytest.raises(SolutionError) as dense:
            block_diagonalize(build_blocks(params), np.diag(signs.astype(complex)), tol=0.0)
        monkeypatch.setattr(_sectors, "generalized_parity_signs", lambda *_: signs)
        with pytest.raises(SolutionError) as core:
            sector_spectrum(params, 3)
        assert str(core.value) == str(dense.value)

    @pytest.mark.parametrize("bad", [1j, -1.0 + 1e-15j])
    def test_non_real_sign_raises_the_evolve_error(self, monkeypatch, bad):
        # The band verdict fails a non-real diagonal, on the spectrum and evolve paths alike.
        params = seeded_params(14, 2, 24)
        signs = generalized_parity_signs(2, 24).astype(complex)
        signs[11] = bad
        monkeypatch.setattr(_sectors, "generalized_parity_signs", lambda *_: signs)
        with pytest.raises(SolutionError, match="^candidate is not a verified Riccati") as core:
            sector_spectrum(params, 3)
        with pytest.raises(SolutionError) as evolve_path:
            _sectors.sector_eigensystem(params)
        assert str(core.value) == str(evolve_path.value)

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_returned_arrays_own_their_data(self, m):
        for w in sector_spectrum(seeded_params(15, 2, 40), m):
            assert w.base is None and w.dtype == np.float64 and w.shape == (m,)


class TestSweep:
    BASE = ModelParams(alpha=0.4, omega=1.0, g=0.0, k=1, dim=8)

    def test_degenerate_range_rows_identical(self):
        spec = SweepSpec(base=self.BASE, param="g", lo=0.0, hi=0.0, steps=2, levels=2)
        rows = sweep(spec)
        half = len(rows) // 2
        assert rows[:half] == [(r[0], r[1], r[2], r[3]) for r in rows[half:]]

    def test_free_limit_levels_are_omega_spaced(self):
        base = ModelParams(alpha=0.0, omega=1.0, g=0.0, k=1, dim=8)
        spec = SweepSpec(base=base, param="g", lo=0.0, hi=0.5, steps=2, levels=4)
        rows = [r for r in sweep(spec) if r[0] == 0.0 and r[1] == "+"]
        levels = [r[3] for r in rows]
        assert np.allclose(np.diff(levels), 1.0, rtol=0, atol=1e-12)

    def test_ground_state_decreases_and_matches_full_oracle(self):
        spec = SweepSpec(base=self.BASE, param="g", lo=0.0, hi=0.5, steps=6, levels=3)
        rows = sweep(spec)
        ground = []
        for value in np.linspace(0.0, 0.5, 6):
            point = [r[3] for r in rows if r[0] == value]
            ground.append(min(point))
            full = eig_hermitian(build_full(dataclasses.replace(self.BASE, g=value)))[0]
            merged = np.sort(point)
            assert np.allclose(merged[:2], full[:2], rtol=0, atol=1e-9)
        assert all(b < a + 1e-15 for a, b in zip(ground, ground[1:]))

    def test_alpha_and_omega_sweeps(self):
        for param, lo, hi in (("alpha", -0.5, 0.5), ("omega", 0.5, 1.5)):
            spec = SweepSpec(base=self.BASE, param=param, lo=lo, hi=hi, steps=3, levels=1)
            assert len(sweep(spec)) == 3 * 2

    def test_coupling_sweep_keeps_phase(self):
        base = dataclasses.replace(self.BASE, g=0.1j)
        spec = SweepSpec(base=base, param="g", lo=0.0, hi=0.4, steps=3, levels=1)
        at = spec.params_at(0.4)
        assert at.g == pytest.approx(0.4j, abs=1e-15)

    def test_csv_deterministic_and_thread_invariant(self):
        spec = SweepSpec(base=self.BASE, param="g", lo=0.0, hi=0.3, steps=4, levels=2)
        first = sweep_csv(sweep(spec))
        second = sweep_csv(sweep(spec))
        assert first == second
        assert first.splitlines()[0] == "param,block,level,eigenvalue"

    @pytest.mark.parametrize("param,lo,hi", [("g", 0.0, 0.4), ("alpha", -0.5, 0.8),
                                             ("omega", 0.5, 1.5)])
    def test_verifies_on_the_band_not_through_the_dense_verifier(self, monkeypatch,
                                                                 param, lo, hi):
        spec = SweepSpec(base=seeded_params(16, 3, 25), param=param, lo=lo, hi=hi, steps=5,
                         levels=3)
        expected = sweep_csv(sweep(spec)).encode()
        forbid(monkeypatch, ("verify_involution_solution", "block_diagonalize"), "sweep")
        assert sweep_csv(sweep(spec)).encode() == expected

    @pytest.mark.parametrize("lo,hi", [(-1.7e308, 1.7e308), (-1e308, 1e308),
                                       (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_range_with_non_finite_width_rejected(self, lo, hi):
        # np.linspace over such a range warns of overflow and yields nan grid values.
        if math.isfinite(lo) and math.isfinite(hi):
            reason = f"sweep range hi - lo must be finite, got [{lo}, {hi}]"
        else:  # a non-finite endpoint is refused by name
            name, value = ("lo", lo) if not math.isfinite(lo) else ("hi", hi)
            reason = f"{name} must be finite, got {value}"
        with pytest.raises(ValueError) as exc:
            SweepSpec(base=self.BASE, param="alpha", lo=lo, hi=hi, steps=3, levels=2)
        assert str(exc.value) == reason

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=self.BASE, param="g", lo=1.0, hi=0.0, steps=2, levels=1)
        with pytest.raises(ValueError):
            SweepSpec(base=self.BASE, param="g", lo=0.0, hi=1.0, steps=1, levels=1)
        with pytest.raises(ValueError):
            SweepSpec(base=self.BASE, param="g", lo=0.0, hi=1.0, steps=2, levels=9)
        with pytest.raises(ValueError):
            SweepSpec(base=self.BASE, param="omega", lo=0.0, hi=1.0, steps=2, levels=1)
        with pytest.raises(ValueError):
            SweepSpec(base=self.BASE, param="phase", lo=0.0, hi=1.0, steps=2, levels=1)


class TestNoMatrixPower:
    """The dense blocks are written from the amplitudes: no command takes a matrix power."""

    @pytest.fixture
    def no_matrix_power(self, monkeypatch):
        def power(*_args, **_kwargs):
            raise AssertionError("matrix power taken")

        monkeypatch.setattr(np.linalg, "matrix_power", power)
        forbid(monkeypatch, ("power_k",), "the dense blocks")
        monkeypatch.setattr(krabi.fock, "power_k", power)

    @pytest.mark.parametrize("k", [1, 4])
    def test_build_blocks(self, no_matrix_power, k):
        blocks = build_blocks(seeded_params(k + 40, k, 6 * k + 1))
        assert blocks.dim == 6 * k + 1

    @pytest.mark.parametrize("extra", [
        ["sweep", "--param", "g", "--lo", "0", "--hi", "0.3", "--steps", "3", "--levels", "2"],
        ["verify", "--spectra"],
        ["verify", "--dump", "residual.txt", "--out", "report.json"],
    ], ids=["sweep", "verify-spectra", "verify-dump"])
    def test_commands(self, no_matrix_power, capsys, monkeypatch, tmp_path, extra):
        monkeypatch.chdir(tmp_path)
        argv = [extra[0], "--k", "4", "--dim", "21", "--alpha", "-0.6", "--omega", "1",
                "--g", "0.2+0.1i", *extra[1:]]
        assert cli.run(argv) == 0
        assert capsys.readouterr().err == ""


class TestEvolve:
    def basis_state(self, size, index):
        state = np.zeros(size, dtype=complex)
        state[index] = 1.0
        return state

    def test_time_zero_returns_input_exactly(self):
        params = ModelParams(alpha=0.4, omega=1.0, g=0.3, k=1, dim=6)
        state = self.basis_state(12, 3)
        times, states = evolve(params, EvolutionSpec(initial_state=state, dt=0.1, steps=3))
        assert times[0] == 0.0
        assert np.array_equal(states[0], state)

    def test_phase_past_the_float64_range_raises(self):
        params = ModelParams(alpha=0.4, omega=1.0, g=0.3, k=1, dim=6)
        spec = EvolutionSpec(initial_state=self.basis_state(12, 3), dt=1e307, steps=100)
        with pytest.raises(ValueError, match="^the phase w\\*t overflows float64: "):
            evolve(params, spec)

    def test_dephasing_keeps_block_occupancy(self):
        params = ModelParams(alpha=0.0, omega=1.0, g=0.4, k=2, dim=8)
        state = self.basis_state(16, 0)
        _, states = evolve(params, EvolutionSpec(initial_state=state, dt=0.2, steps=20))
        lower = states[:, 8:]
        assert np.max(np.abs(lower)) <= 1e-12

    @pytest.mark.parametrize("seed,k,dim", [(0, 1, 8), (1, 2, 12), (2, 3, 12),
                                            (3, 1, 64), (4, 2, 64), (5, 3, 48), (6, 4, 64),
                                            (7, 1, 128), (8, 2, 128), (9, 3, 128), (10, 4, 128),
                                            (11, 3, 17), (12, 4, 66)])
    def test_matches_full_propagator(self, seed, k, dim):
        rng = np.random.default_rng(seed)
        params = ModelParams(alpha=rng.random(), omega=0.5 + rng.random(),
                             g=rng.random() * np.exp(2j * np.pi * rng.random()),
                             k=k, dim=dim)
        state = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
        state /= np.linalg.norm(state)
        spec = EvolutionSpec(initial_state=state, dt=0.5, steps=2)
        times, states = evolve(params, spec)
        for t, psi in zip(times[1:], states[1:]):
            oracle = full_propagated(params, state, t)
            assert np.linalg.norm(psi - oracle) <= 1e-10

    @pytest.mark.parametrize("k,dim", [(1, 16), (2, 64), (3, 50), (4, 128)])
    def test_equals_out_of_place_frame_changes_bitwise(self, k, dim):
        params = seeded_params(k, k, dim)
        state = random_state(dim, dim)
        spec = EvolutionSpec(initial_state=state, dt=0.07, steps=30)
        got_times, got = evolve(params, spec)
        assert np.array_equal(got_times, np.arange(31, dtype=np.float64) * 0.07)
        expected = whole_grid_states(params, state, 0.07, 30)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    @pytest.mark.parametrize("k,dim", [(1, 64), (2, 128), (3, 50), (4, 66)])
    def test_spans_match_the_whole_grid_and_the_full_propagator(self, k, dim):
        # Each span is its own matmul, so BLAS may sum in another order than
        # one product over the whole grid: equal to roundoff, not bitwise.
        params = seeded_params(k + 20, k, dim)
        state = random_state(dim + 1, dim)
        steps = three_spans(dim)
        _, got = evolve(params, EvolutionSpec(initial_state=state, dt=0.03, steps=steps))
        assert np.max(np.abs((got - whole_grid_states(params, state, 0.03, steps))
                             .view(np.float64))) <= 1e-15
        w, v = eig_hermitian(build_full(params))
        times = np.arange(steps + 1) * 0.03
        oracle = (v @ (np.exp(-1j * np.outer(w, times)) * (v.conj().T @ state)[:, None])).T
        assert np.max(np.linalg.norm(got - oracle, axis=1)) <= 1e-10

    @pytest.mark.parametrize("k,dim", [(2, 9), (3, 10), (4, 11), (3, 47)])
    def test_short_sector_and_ground_state_match_the_full_propagator(self, k, dim):
        # No model puts its lowest level in a short sector: sector 1 holds Fock state 0
        # and is never short. So start from the lowest level of the last sector, which
        # is short when k does not divide dim, and from the ground state.
        params = seeded_params(k + 30, k, dim)
        l = k - 1
        top, _ = block_diagonalize(build_blocks(params), np.diag(generalized_parity_signs(k, dim)))
        levels, vectors = eig_hermitian(top[l::k, l::k])
        u = np.zeros(dim, dtype=complex)
        u[l::k] = vectors[:, 0]
        signs = generalized_parity_signs(k, dim)
        eigenstate = np.concatenate([u, signs * u]) / math.sqrt(2)
        spec = EvolutionSpec(initial_state=eigenstate, dt=0.3, steps=6)
        times, states = evolve(params, spec)
        for t, psi in zip(times, states):
            assert np.linalg.norm(psi - full_propagated(params, eigenstate, t)) <= 1e-12
            assert np.linalg.norm(psi - np.exp(-1j * levels[0] * t) * eigenstate) <= 1e-12
        h = build_full(params)
        w = eig_hermitian(h)[0]
        psi = ground_state(params)
        assert np.linalg.norm(h @ psi - w[0] * psi) <= 1e-12 * np.max(np.abs(w))
        spec = EvolutionSpec(initial_state=psi, dt=0.3, steps=6)
        for t, phi in zip(*evolve(params, spec)):
            assert np.linalg.norm(phi - full_propagated(params, psi, t)) <= 1e-12

    def test_phase_check_reads_real_levels_only(self):
        # k = 2 does not divide dim = 5: the short sector's pad lies above every level,
        # and here pad*t overflows float64 where every level's w*t does not.
        params = ModelParams(alpha=0.4, omega=1.0, g=0.8, k=2, dim=5)
        system = _sectors.sector_eigensystem(params)
        held = _sectors.fock_mask(2, 5)
        largest = float(np.max(np.abs(system.w[:, held])))
        pad = float(np.min(system.w[:, ~held]))
        t = 1.79e308 / largest
        assert math.isfinite(largest * t) and pad * t == math.inf
        _, states = evolve(params, EvolutionSpec(initial_state=self.basis_state(10, 3),
                                                 dt=t / 2, steps=2))
        assert np.all(np.isfinite(states.view(np.float64)))
        with pytest.raises(ValueError, match="^the phase w\\*t overflows float64: "):
            evolve(params, EvolutionSpec(initial_state=self.basis_state(10, 3), dt=t, steps=2))

    @pytest.mark.parametrize("bad", [2.0, 1j, -1.0 + 1e-15])
    def test_rejects_parity_that_is_not_a_sign_vector(self, monkeypatch, bad):
        params = ModelParams(alpha=0.4, omega=1.0, g=0.3, k=1, dim=4)
        signs = generalized_parity_signs(1, 4).astype(complex)
        signs[2] = bad
        monkeypatch.setattr(_sectors, "generalized_parity_signs", lambda *_: signs)
        spec = EvolutionSpec(initial_state=self.basis_state(8, 0), dt=0.1, steps=2)
        with pytest.raises(SolutionError, match="^candidate is not a verified Riccati") as core:
            evolve(params, spec)
        with pytest.raises(SolutionError) as ground:
            ground_state(params)
        assert str(ground.value) == str(core.value)

    def test_norm_drift_over_hundred_steps(self):
        params = ModelParams(alpha=0.6, omega=1.0, g=0.2 + 0.1j, k=2, dim=16)
        rng = np.random.default_rng(5)
        state = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state /= np.linalg.norm(state)
        _, states = evolve(params, EvolutionSpec(initial_state=state, dt=0.05, steps=100))
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-8

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            EvolutionSpec(initial_state=np.ones(4, dtype=complex), dt=0.1, steps=1)

    def test_wrong_length_rejected(self):
        params = ModelParams(alpha=0.4, omega=1.0, g=0.3, k=1, dim=6)
        state = self.basis_state(10, 0)
        with pytest.raises(ShapeError):
            evolve(params, EvolutionSpec(initial_state=state, dt=0.1, steps=1))

    def test_trajectory_csv_shape(self):
        params = ModelParams(alpha=0.4, omega=1.0, g=0.3, k=1, dim=2)
        state = self.basis_state(4, 0)
        times, states = evolve(params, EvolutionSpec(initial_state=state, dt=0.25, steps=2))
        text = trajectory_csv(times, states)
        lines = text.splitlines()
        assert lines[0] == "t,component_index,re,im"
        assert len(lines) == 1 + 3 * 4


class TestStreamedEvolve:
    """krabi evolve's CSV, propagated and formatted one span at a time."""

    @pytest.mark.parametrize("state", ["ground", "file"])
    @pytest.mark.parametrize("k,dim", [(1, 64), (2, 128), (3, 50), (4, 66)])
    def test_equals_the_csv_of_evolve_bytewise(self, k, dim, state):
        params = seeded_params(k + 10, k, dim)
        steps = three_spans(dim)
        initial = ground_state(params) if state == "ground" else random_state(k, dim)
        streamed = b"".join(spectra._evolve_csv(params, 0.05, steps,
                                                None if state == "ground" else initial))
        spec = EvolutionSpec(initial_state=initial, dt=0.05, steps=steps)
        # Bytes, not str: pytest's diff of two long texts takes minutes.
        assert streamed == trajectory_csv(*evolve(params, spec)).encode()

    def test_peak_memory_does_not_grow_with_steps(self):
        params = ModelParams(alpha=0.7, omega=1.0, g=0.03 + 0.01j, k=2, dim=128)

        def peak(steps):
            tracemalloc.start()
            try:
                for _ in spectra._evolve_csv(params, 0.01, steps):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # first use fills the formatter's cached tables
        assert abs(peak(8000) - peak(200)) <= 0.5e6


class TestGroundState:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_top_block_ground_state_is_lowest_eigenvector(self, k):
        # The CLI tests cover alpha > 0, where the bottom block holds it.
        params = dataclasses.replace(seeded_params(k, k, 8 * k), alpha=-0.6)
        h = build_full(params)
        w = eig_hermitian(h)[0]
        psi = ground_state(params)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(h @ psi - w[0] * psi) <= 1e-10

    def test_free_limit_vectors(self):
        # At g = 0 the bottom block holds the ground state for alpha > 0.
        params = ModelParams(alpha=0.5, omega=1.0, g=0.0, k=1, dim=4)
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[4] = -1 / math.sqrt(2), 1 / math.sqrt(2)
        assert np.allclose(ground_state(params), expected, rtol=0, atol=1e-15)
        flipped = ground_state(dataclasses.replace(params, alpha=-0.5))
        expected[0] = 1 / math.sqrt(2)
        assert np.allclose(flipped, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_lowest_levels_go_to_the_top_block(self, k):
        # At g = 0 and alpha = 0 both blocks hold the level 0 of Fock state 0:
        # the top block's vector is [u; s*u] / sqrt(2), the bottom's [-s*u; u] / sqrt(2).
        dim = 4 * k
        psi = ground_state(ModelParams(alpha=0.0, omega=1.0, g=0.0, k=k, dim=dim))
        assert np.flatnonzero(psi).tolist() == [0, dim]
        assert psi[0] * np.conj(psi[dim]) == pytest.approx(0.5, abs=1e-15)


class TestBandVerification:
    def test_every_solve_raises_the_same_zero_tolerance_error(self, monkeypatch):
        params = seeded_params(17, 2, 24)
        signs = generalized_parity_signs(2, 24)
        signs[11] *= -1
        monkeypatch.setattr(_sectors, "generalized_parity_signs", lambda *_: signs)
        # lo = hi = alpha: the sweep's grid points are the model itself.
        spec = SweepSpec(base=params, param="alpha", lo=params.alpha, hi=params.alpha,
                         steps=2, levels=2)
        evolution = EvolutionSpec(initial_state=random_state(17, 24), dt=0.1, steps=2)
        solves = {"sweep": lambda: sweep(spec),
                  "sector_spectrum": lambda: sector_spectrum(params, 3),
                  "ground_state": lambda: ground_state(params),
                  "evolve": lambda: evolve(params, evolution)}
        texts = {}
        for name, solve in solves.items():
            with pytest.raises(SolutionError) as error:
                solve()
            texts[name] = str(error.value)
        assert len(set(texts.values())) == 1, texts
        assert texts["sweep"].endswith("(tolerance 0.0e+00)")


class TestTrajectoryCsv:
    TIMES = np.array([0.0, 0.125, 1e300])
    EXTREME = np.array([
        [-0.0, 1e-300, 1e300, -1e300 - 1e-300j],
        [-0.0 - 0.0j, 5e-324j, -1e-300 + 1e300j, 1.0 / 3.0],
        [np.pi - np.e * 1j, -0.0j, 2.0**-1074, -(2.0**1023)],
    ], dtype=np.complex128)

    def test_extreme_values_byte_identical(self):
        # Bytes, not str, here and below: pytest's diff of two long texts takes minutes.
        assert trajectory_csv(self.TIMES, self.EXTREME).encode() == \
            per_line_trajectory_csv(self.TIMES, self.EXTREME).encode()
        assert "-0.0000000000000000e+00" in trajectory_csv(self.TIMES, self.EXTREME)

    @pytest.mark.parametrize("layout", ["strided", "fortran", "complex64", "float64"])
    def test_other_layouts_and_dtypes_byte_identical(self, layout):
        wide = np.tile(self.EXTREME, (1, 2))
        states = {
            "strided": wide[:, ::2],
            "fortran": np.asfortranarray(self.EXTREME),
            "complex64": (self.EXTREME.real.clip(-1e30, 1e30) / 7).astype(np.complex64),
            "float64": self.EXTREME.real,
        }[layout]
        assert trajectory_csv(self.TIMES, states).encode() == \
            per_line_trajectory_csv(self.TIMES, states).encode()

    def test_evolved_trajectory_byte_identical(self):
        params = seeded_params(3, 2, 12)
        spec = EvolutionSpec(initial_state=ground_state(params), dt=0.1, steps=7)
        times, states = evolve(params, spec)
        assert trajectory_csv(times, states).encode() == \
            per_line_trajectory_csv(times, states).encode()

    @pytest.mark.parametrize("steps,comps", [(3, 4), (50, 100), (400, 100), (4, 3000)])
    def test_chunks_are_header_then_whole_time_steps(self, steps, comps):
        rng = np.random.default_rng(comps)
        times = np.arange(steps) * 0.1
        states = rng.normal(size=(steps, comps)) + 1j * rng.normal(size=(steps, comps))
        chunks = list(trajectory_chunks(times, states))
        assert all(type(chunk) is str for chunk in chunks)
        assert chunks[0] == "t,component_index,re,im\n"
        for chunk in chunks[1:]:
            assert chunk.endswith("\n")
            rows = [line.split(",") for line in chunk.splitlines()]
            assert len(rows) % comps == 0
            for step in range(0, len(rows), comps):
                whole = rows[step : step + comps]
                assert [int(row[1]) for row in whole] == list(range(comps))
                assert len({row[0] for row in whole}) == 1
        joined = "".join(chunks).encode()
        assert joined == trajectory_csv(times, states).encode()
        assert joined == per_line_trajectory_csv(times, states).encode()
        # As many whole steps per chunk as fit in its value budget, at least one.
        per_chunk = max(1, spectra._CHUNK_VALUES // (2 * comps))
        assert len(chunks) - 1 == -(-steps // per_chunk)

    @pytest.mark.parametrize("times,states", [(TIMES[:2], EXTREME), (TIMES, EXTREME[:1]),
                                              (TIMES[:0], EXTREME),
                                              (np.arange(3.0), np.ones(3, complex)),
                                              (TIMES, EXTREME[..., None])],
                             ids=["short-times", "short-states", "no-times", "1-D-states",
                                  "3-D-states"])
    def test_times_and_states_of_unequal_length_rejected(self, times, states):
        with pytest.raises(ShapeError, match="times"):
            trajectory_csv(times, states)
        with pytest.raises(ShapeError, match="times"):
            trajectory_chunks(times, states)
