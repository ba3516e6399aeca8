"""Truncated ladder operators against exact ladder-action arithmetic."""

import math

import numpy as np
import pytest

from krabi.errors import ShapeError
from krabi.fock import annihilation, creation, number, power_k


def ladder_amplitude(n, k):
    """Exact-oracle matrix element <n-k| a^k |n> from integer factorials."""
    if n < k:
        return 0.0
    return math.sqrt(math.factorial(n) // math.factorial(n - k))


class TestLadderMatrices:
    def test_dim_two(self):
        assert np.array_equal(annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_single_step_amplitude(self):
        a = annihilation(3)
        assert a[1, 2] == pytest.approx(math.sqrt(2), abs=0)

    def test_creation_is_adjoint(self):
        a = annihilation(6)
        assert np.array_equal(creation(6), a.conj().T)

    def test_number_is_diagonal(self):
        assert np.array_equal(number(3), np.diag([0.0, 1.0, 2.0]).astype(complex))

    @pytest.mark.parametrize("dim", [2, 3, 8, 17])
    def test_truncated_commutator(self, dim):
        a = annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(dim, dtype=complex)
        expected[dim - 1, dim - 1] = -(dim - 1)
        assert np.allclose(comm, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 5, 16, 33])
    def test_product_reproduces_number_operator(self, dim):
        n_op = creation(dim) @ annihilation(dim)
        assert np.allclose(n_op, number(dim), rtol=0, atol=1e-12)

    def test_small_dim_rejected(self):
        for dim in (1, 0, -3):
            with pytest.raises(ShapeError):
                annihilation(dim)
        with pytest.raises(ValueError, match="must be an integer") as exc:
            annihilation(2.0)
        assert type(exc.value) is ValueError


class TestPowers:
    def test_two_step_from_vacuum(self):
        a2 = power_k(annihilation(4), 2)
        assert a2[0, 2] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_two_step_from_three(self):
        a2 = power_k(annihilation(5), 2)
        assert a2[1, 3] == pytest.approx(math.sqrt(6), abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_factorial_formula(self, k):
        dim = 33
        a_k = power_k(annihilation(dim), k)
        for n in range(dim):
            for m in range(dim):
                expected = ladder_amplitude(n, k) if m == n - k else 0.0
                assert abs(a_k[m, n] - expected) <= 1e-13 * max(1.0, expected)

    def test_zero_or_negative_k_rejected(self):
        a = annihilation(4)
        for k in (0, -1):
            with pytest.raises(ValueError):
                power_k(a, k)

    def test_k_exceeding_truncation_rejected(self):
        with pytest.raises(ShapeError):
            power_k(annihilation(3), 3)
