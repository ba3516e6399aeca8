"""Contracts of the matrix validation and the Hermitian eigensolver."""

import numpy as np
import pytest

from krabi import linalg
from krabi.errors import HermiticityError, ShapeError
from krabi.fock import annihilation, creation


def random_matrix(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(dim, rng):
    m = random_matrix(dim, rng)
    return (m + m.conj().T) / 2.0


class TestAsSquareComplex:
    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            linalg.as_square_complex(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            linalg.eig_hermitian(bad)


class TestEigHermitian:
    def test_diagonal_sorting(self):
        w, _ = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)

    def test_sigma_x(self):
        w, _ = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], rtol=0, atol=1e-14)

    def test_number_operator_spectrum(self):
        n_op = creation(16) @ annihilation(16)
        w, _ = linalg.eig_hermitian(n_op)
        assert np.max(np.abs(w - np.arange(16))) <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed,dim", [(0, 8), (1, 33), (2, 64)])
    def test_reconstruction_trace_unitarity(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(dim, rng)
        norm = np.linalg.norm(h)
        w, v = linalg.eig_hermitian(h)
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) <= 1e-10 * norm
        assert abs(np.trace(h).real - np.sum(w)) <= 1e-10 * norm
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(20, rng)
        w, v = linalg.eig_hermitian(h)
        assert np.linalg.norm(h @ v - v * w) <= 1e-10 * np.linalg.norm(h)

    def test_nonconvergence_reported_as_solver_bug(self, monkeypatch):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", explode)
        with pytest.raises(linalg.EigenSolverError):
            linalg.eig_hermitian(np.eye(2))


class TestSerialization:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        m = random_matrix(5, rng)
        path = str(tmp_path / "m.txt")
        linalg.dump_matrix(m, path)
        assert np.allclose(linalg.load_matrix(path), m, rtol=0, atol=1e-15)

    def test_matrix_format_header(self, tmp_path):
        path = str(tmp_path / "m.txt")
        linalg.dump_matrix(np.eye(3), path)
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert lines[0] == "3"
        assert len(lines) == 1 + 9
        assert lines[1].split() == ["1.0000000000000000e+00", "0.0000000000000000e+00"]

    def test_vector_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        path = str(tmp_path / "v.txt")
        linalg.dump_vector(v, path)
        assert np.allclose(linalg.load_vector(path), v, rtol=0, atol=1e-15)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n")
        with pytest.raises(ShapeError):
            linalg.load_matrix(str(path))
