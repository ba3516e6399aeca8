"""The k = 1 blocks against Braak's G-function, an oracle with no truncation.

Braak (PRL 107, 100401 (2011)) solves the Rabi model exactly: in units of
omega, with Delta = alpha/omega and g = |g|/omega, the levels of the parity
subspace +-1 are E = omega*(x - g^2) at the zeros x of

    G+-(x) = sum_n K_n(x) * (1 -+ Delta/(x - n)) * g^n,

    n*K_n = f_(n-1)(x)*K_(n-1) - K_(n-2),  K_0 = 1, K_(-1) = 0,
    f_n(x) = 2g + (n - x + Delta^2/(x - n)) / (2g).

G+ belongs to the "+" block omega*N + |g|*(a + a^dag) + alpha*(-1)^N and G-
to the "-" block. G+- is analytic between its poles at x = n, and the levels
lie above x = -|Delta|, so each zero is bracketed by a sign change on a grid
over (-|Delta|, 0) and (n, n + 1), then bisected. The series is summed until
its terms have decayed below roundoff of the partial sum. The truncated
sector levels at dim 400 have converged to roundoff below x = 4.5.
"""

import math

import numpy as np
import pytest

from krabi.model import ModelParams
from krabi.spectra import sector_spectrum

CUT = 4.5  # in x: levels E < omega*(CUT - g^2) are compared
DIM = 400
GRID = 4000  # sample points per interval between poles


def braak_g(x, delta, g, sign):
    """G+ (sign = +1) or G- (sign = -1) at the points ``x``, none of them a pole."""
    x = np.asarray(x, dtype=np.float64)
    k_prev, k_n = np.zeros_like(x), np.ones_like(x)
    total = k_n * (1.0 - sign * delta / x)
    n = 0
    while True:
        f = 2.0 * g + (n - x + delta * delta / (x - n)) / (2.0 * g)
        k_prev, k_n = k_n, (f * k_n - k_prev) / (n + 1)
        n += 1
        term = k_n * (1.0 - sign * delta / (x - n)) * g**n
        total = total + term
        # Past x the terms only shrink; stop once they are below roundoff of the sum.
        if n > np.max(x) + 2 and np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1)):
            return total
        assert n < 2000, "G-function series did not converge"


def braak_zeros(delta, g, sign):
    """Zeros of G+- below x = CUT, ascending."""
    edges = [(-abs(delta), 0.0)] + [(n, n + 1.0) for n in range(math.ceil(CUT))]
    zeros = []
    for lo, hi in edges:
        if lo == hi:
            continue
        step = (hi - lo) / GRID
        x = np.linspace(lo + 1e-9 * step, hi - 1e-9 * step, GRID + 1)
        values = braak_g(x, delta, g, sign)
        for i in np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:])):
            a, b, value_a = x[i], x[i + 1], values[i]
            while True:
                mid = 0.5 * (a + b)
                if mid in (a, b):
                    break
                value_mid = braak_g(mid, delta, g, sign)
                if np.sign(value_mid) == np.sign(value_a):
                    a, value_a = mid, value_mid
                else:
                    b = mid
            zeros.append(0.5 * (a + b))
    return np.array([z for z in zeros if z < CUT])


CASES = [(0.4, 0.3), (-0.7, 0.5), (0.2, 0.8), (0.4, 0.3 * np.exp(2.1j))]


@pytest.mark.parametrize("alpha,g", CASES, ids=["0.4-0.3", "-0.7-0.5", "0.2-0.8", "complex-g"])
def test_block_levels_are_the_zeros_of_the_g_function(alpha, g):
    omega = 1.3
    params = ModelParams(alpha=alpha, omega=omega, g=g, k=1, dim=DIM)
    delta, coupling = alpha / omega, abs(g) / omega
    for sign, levels in zip((1, -1), sector_spectrum(params, DIM)):
        exact = omega * (braak_zeros(delta, coupling, sign) - coupling**2)
        truncated = levels[levels < omega * (CUT - coupling**2)]
        assert truncated.size == exact.size > 0
        assert np.all(np.abs(truncated - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact)))


@pytest.mark.parametrize("g", [0.3, 0.8, 0.5 * np.exp(0.7j)])
def test_zero_gap_gives_the_displaced_oscillator(g):
    # At alpha = 0 both blocks are omega*(a^dag a) +- |g|*(a + a^dag): omega*n - |g|^2/omega.
    omega = 1.3
    params = ModelParams(alpha=0.0, omega=omega, g=g, k=1, dim=DIM)
    expected = omega * np.arange(5) - abs(g) ** 2 / omega
    for levels in sector_spectrum(params, 5):
        assert np.all(np.abs(levels - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("omega,alpha", [(1.0, 0.4), (1.3, -0.7), (2.0, 0.0)])
def test_first_judd_point_is_shared_by_both_blocks(omega, alpha):
    # Judd's exceptional level sits on the pole x = 1 of G+- and in both parity subspaces.
    g = math.sqrt(omega**2 - alpha**2) / 2
    params = ModelParams(alpha=alpha, omega=omega, g=g, k=1, dim=DIM)
    level = omega - g**2 / omega
    for levels in sector_spectrum(params, 5):
        assert np.min(np.abs(levels - level)) <= 1e-13 * max(1.0, abs(level))
