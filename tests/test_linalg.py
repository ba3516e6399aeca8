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


VECTORS = pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values"])


class TestEigHermitian:
    @VECTORS
    def test_diagonal_sorting(self, vectors):
        w, _ = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]), vectors=vectors)
        assert np.allclose(w, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)

    def test_sigma_x(self):
        w, _ = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], rtol=0, atol=1e-14)

    def test_number_operator_spectrum(self):
        n_op = creation(16) @ annihilation(16)
        w, _ = linalg.eig_hermitian(n_op)
        assert np.max(np.abs(w - np.arange(16))) <= 1e-12

    @VECTORS
    def test_non_hermitian_rejected(self, vectors):
        with pytest.raises(HermiticityError, match=r"^matrix is not Hermitian: defect 1\.414e\+00 "
                           r"exceeds 1\.0e-12 \* \|\|a\|\| = 1\.000e-12$"):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=vectors)

    @pytest.mark.parametrize("seed,dim", [(3, 1), (4, 17), (5, 64)])
    def test_values_alone_match_the_full_decomposition(self, seed, dim):
        h = random_hermitian(dim, np.random.default_rng(seed))
        w, v = linalg.eig_hermitian(h, vectors=False)
        assert v is None and np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - linalg.eig_hermitian(h)[0])) <= 1e-12 * np.linalg.norm(h)

    @VECTORS
    def test_converts_its_argument_once(self, monkeypatch, vectors):
        calls = []
        convert = linalg.as_square_complex
        monkeypatch.setattr(linalg, "as_square_complex", lambda *a: calls.append(a) or convert(*a))
        linalg.eig_hermitian(np.eye(3), vectors=vectors)
        assert len(calls) == 1

    @VECTORS
    def test_entries_whose_squares_overflow(self, vectors):
        # ||a||^2 exceeds the float64 range; ||a|| and the levels do not.
        w, _ = linalg.eig_hermitian(np.array([[0.0, 3e200], [3e200, 0.0]]), vectors=vectors)
        assert np.allclose(w, [-3e200, 3e200], rtol=1e-15, atol=0)

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

    @pytest.mark.parametrize("vectors,solver", [(True, "eigh"), (False, "eigvalsh")],
                             ids=["vectors", "values"])
    def test_nonconvergence_reported_as_solver_bug(self, monkeypatch, vectors, solver):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, solver, explode)
        with pytest.raises(linalg.EigenSolverError,
                           match="^Hermitian eigensolver failed to converge: did not converge$"):
            linalg.eig_hermitian(np.eye(2), vectors=vectors)


class TestNorm:
    def test_plain_norm_where_it_is_finite(self):
        a = np.random.default_rng(6).standard_normal((5, 5)) * 1e150
        assert linalg._norm(a) == float(np.linalg.norm(a))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_rescaled_where_the_squares_overflow(self, scale):
        a = np.array([3.0, 4.0j, 0.0]) * scale
        assert linalg._norm(a) == pytest.approx(5.0 * scale, rel=1e-15)

    def test_infinite_only_past_the_float64_range(self):
        assert linalg._norm(np.full(4, 1e308)) == np.inf


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
