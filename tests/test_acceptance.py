"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from krabi import _sectors
from krabi.fock import annihilation, creation, power_k
from krabi.linalg import eig_hermitian
from krabi.model import ModelParams, build_blocks, build_full
from krabi.parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from krabi.riccati import (
    block_diagonalize,
    similarity_transform,
    verify_involution_solution,
)
from krabi.spectra import EvolutionSpec, evolve

from _oracle import decompose, partial_parity_signs


def report(index, ok, detail):
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def draw_params(rng, k, dim):
    alpha = 2.0 * (1.0 - rng.random())        # (0, 2]
    omega = 2.0 * (1.0 - rng.random())        # (0, 2]
    g = rng.random() * np.exp(2j * np.pi * rng.random())  # |g| <= 1, random phase
    return ModelParams(alpha=alpha, omega=omega, g=g, k=k, dim=dim)


def test_criterion_1_generalized_parity_solves_riccati():
    """Relative residual of the generalized parity stays at machine zero."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for k in range(1, 7):
        for dim in (4 * k, 8 * k, 16 * k):
            x = np.diag(generalized_parity_signs(k, dim))
            for _ in range(5):
                params = draw_params(rng, k, dim)
                rep = verify_involution_solution(build_blocks(params), x, params=params)
                worst = max(worst, rep.relative_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, ok, f"max relative residual {worst:.3e} <= 1e-12, runtime {elapsed:.2f}s < 10s")


def test_criterion_2_partial_parity_properties():
    """Per-sector parity: involution, commutes with number, flips lowering."""
    worst_flip = 0.0
    exact = True
    for k in range(1, 7):
        for dim in (2 * k + 1, 10 * k + 3):
            sd = decompose(k, dim)
            a_k = power_k(annihilation(dim), k)
            for l in range(1, k + 1):
                signs = partial_parity_signs(sd, l)      # integer arithmetic
                exact &= bool(np.array_equal(signs * signs, np.ones_like(signs)))
                n_diag = sd.members[l - 1]
                exact &= bool(np.array_equal(signs * n_diag - n_diag * signs,
                                             np.zeros_like(n_diag)))
                a_l = sd.compress(a_k, l, l)
                j_l = np.diag(signs.astype(np.complex128))
                worst_flip = max(worst_flip, float(np.linalg.norm(j_l @ a_l @ j_l + a_l)))
    ok = exact and worst_flip <= 1e-13
    report(2, ok, f"squares/commutators exact, max ||J A J + A|| = {worst_flip:.1e} <= 1e-13")


def test_criterion_3_special_cases_exact_signs():
    """k = 1 and k = 2 reduce to the dedicated parity sign vectors."""
    ok = True
    for dim in range(2, 257):
        ok &= bool(np.array_equal(generalized_parity_signs(1, dim), bosonic_parity_signs(dim)))
    for dim in range(4, 257):
        ok &= bool(np.array_equal(generalized_parity_signs(2, dim), two_photon_parity_signs(dim)))
    report(3, ok, "sign vectors identical for every dim up to 256")


def test_criterion_4_block_diagonalization_and_spectra():
    """Conjugation kills the off-diagonal blocks and preserves the spectrum."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_off = 0.0
    worst_dev = 0.0
    for k, dim in ((1, 64), (1, 256), (2, 64), (2, 256), (3, 96), (3, 255), (6, 96)):
        params = draw_params(rng, k, dim)
        blocks = build_blocks(params)
        x = np.diag(generalized_parity_signs(k, dim))
        top, bottom = block_diagonalize(blocks, x)
        s, s_inv = similarity_transform(x)
        full = blocks.full_matrix()
        conjugated = s_inv @ full @ s
        norm = np.linalg.norm(full)
        off = max(np.linalg.norm(conjugated[:dim, dim:]),
                  np.linalg.norm(conjugated[dim:, :dim]))
        worst_off = max(worst_off, off / norm)

        merged = np.sort(np.concatenate([eig_hermitian(top)[0], eig_hermitian(bottom)[0]]))
        w_full = eig_hermitian(full)[0]
        spread = float(w_full[-1] - w_full[0])
        dev = float(np.max(np.abs(merged - w_full))) / max(1.0, spread)
        worst_dev = max(worst_dev, dev)
    elapsed = time.perf_counter() - start
    ok = worst_off <= 1e-11 and worst_dev <= 1e-9 and elapsed < 60.0
    report(4, ok, f"off-diagonal {worst_off:.1e} <= 1e-11, spectral deviation "
                  f"{worst_dev:.1e} <= 1e-9, runtime {elapsed:.1f}s < 60s")


def test_criterion_5_claim_audit():
    """Measured solution sets of the two dedicated parities, residuals reported.

    Bosonic parity: solves exactly the odd k. Two-photon parity: solves
    exactly k with k % 4 == 2; the k = 4 residual is reported below and is
    bounded away from zero, so claims that it extends to all even k >= 4
    do not hold at k = 4.
    """
    lines = []
    ok = True
    for k in (1, 2, 3, 4, 5, 6):
        dim = 8 * k
        params = ModelParams(alpha=1.0, omega=1.0, g=0.5, k=k, dim=dim)
        blocks = build_blocks(params)
        rep_p = verify_involution_solution(blocks, np.diag(bosonic_parity_signs(dim)))
        rep_t = verify_involution_solution(blocks, np.diag(two_photon_parity_signs(dim)))
        lines.append(f"k={k}: P rel={rep_p.relative_residual:.3e} "
                     f"T rel={rep_t.relative_residual:.3e}")
        if k % 2 == 1:
            ok &= rep_p.passed
        else:
            ok &= (not rep_p.passed) and rep_p.relative_residual >= 1e-3
        if k in (2, 6):
            ok &= rep_t.passed
        if k == 4:
            ok &= (not rep_t.passed) and rep_t.relative_residual >= 1e-3
            k4_residual = rep_t.relative_residual
    for line in lines:
        print("  " + line)
    report(5, ok, f"P solves odd k only; T solves k=2,6 and fails k=4 "
                  f"(rel residual {k4_residual:.3e} >= 1e-3)")


def test_criterion_6_decoupled_dynamics():
    """Block-frame evolution matches the full propagator over 100 steps."""
    worst = 0.0
    for k in (1, 2, 3):
        dim = 32 * k
        rng = np.random.default_rng(100 + k)
        params = draw_params(rng, k, dim)
        state = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
        state /= np.linalg.norm(state)
        spec = EvolutionSpec(initial_state=state, dt=0.05, steps=100)
        times, states = evolve(params, spec)
        w, v = eig_hermitian(build_full(params))
        coeff = v.conj().T @ state
        for t, psi in zip(times, states):
            oracle = v @ (np.exp(-1j * w * t) * coeff)
            worst = max(worst, float(np.linalg.norm(psi - oracle)))
    ok = worst <= 1e-8
    report(6, ok, f"max deviation from full propagator {worst:.1e} <= 1e-8")


def test_criterion_7_restricted_operator_formulas():
    """The sector core's band (d, e) is projector compression; no leakage.

    Each sector's diagonal d[b, l] and off-diagonal e[b, l] of both blocks
    (pads cut off) are compared with the diagonal and the first super- and
    subdiagonal of the compression of the gauge-rotated dense decoupled block
    conj(D)*top*D or conj(D)*bottom*D, whose other entries must be 0 within
    the absolute floor. Band amplitudes reach ~1e5 at k = 6, dim = 64, so
    agreement is checked entrywise at relative 1e-12 (with 1e-13 absolute
    floor for the exact zeros); cross-sector blocks of a^dag a and a^k must
    vanish to 1e-13.
    """
    rng = np.random.default_rng(20240907)
    ok = True
    worst_cross = 0.0
    for k in range(1, 7):
        for dim in (2 * k + 3, 64):
            sd = decompose(k, dim)
            params = draw_params(rng, k, dim)
            _, d, e = _sectors.sector_band(params)
            phase = _sectors.gauge(params.g, k, dim)
            x = np.diag(generalized_parity_signs(k, dim))
            blocks = block_diagonalize(build_blocks(params), x)
            n_full = creation(dim) @ annihilation(dim)
            a_k = power_k(annihilation(dim), k)
            for l in range(1, k + 1):
                size = sd.sector_dims[l - 1]
                for b, block in enumerate(blocks):
                    sector = sd.compress(phase.conj()[:, None] * block * phase, l, l)
                    off = e[b, l - 1, : size - 1]
                    pairs = [(d[b, l - 1, :size], np.diagonal(sector)),
                             (off, np.diagonal(sector, 1)), (off, np.diagonal(sector, -1)),
                             (np.triu(sector, 2), 0), (np.tril(sector, -2), 0)]
                    ok &= all(np.allclose(got, expected, rtol=1e-12, atol=1e-13)
                              for got, expected in pairs)
                for m in range(1, k + 1):
                    if m == l:
                        continue
                    worst_cross = max(worst_cross,
                                      float(np.linalg.norm(sd.compress(n_full, l, m))),
                                      float(np.linalg.norm(sd.compress(a_k, l, m))))
    ok = ok and worst_cross <= 1e-13
    report(7, ok, f"sector band (d, e) matches compression at 1e-12; cross-sector max "
                  f"{worst_cross:.1e} <= 1e-13")


def test_criterion_8_hand_checkable_instance():
    """k=1, dim=2, omega=1, g=1, alpha=0.5: all spectra known in closed form."""
    params = ModelParams(alpha=0.5, omega=1.0, g=1.0, k=1, dim=2)
    blocks = build_blocks(params)
    top, bottom = block_diagonalize(blocks, np.diag(generalized_parity_signs(1, 2)))
    w_top = eig_hermitian(top)[0]
    w_bottom = eig_hermitian(bottom)[0]
    expected_top = np.array([-0.5, 1.5])
    expected_bottom = np.array([(1 - np.sqrt(8)) / 2, (1 + np.sqrt(8)) / 2])
    w_full = eig_hermitian(build_full(params))[0]
    merged = np.sort(np.concatenate([w_top, w_bottom]))
    dev = max(
        float(np.max(np.abs(w_top - expected_top))),
        float(np.max(np.abs(w_bottom - expected_bottom))),
        float(np.max(np.abs(w_full - merged))),
    )
    ok = dev <= 1e-12
    report(8, ok, f"block and full eigenvalues match closed form, max dev {dev:.1e} <= 1e-12")
