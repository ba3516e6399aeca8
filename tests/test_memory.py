"""The size guard: a request larger than physical memory is refused before it is allocated.

Each guarded step (the sector eigensolve, the dense blocks, the full 2*dim
solve of ``verify --spectra``, the similarity transform, the states of
``evolve``, and the O(dim) work of plain ``verify`` and of ``parity-table``)
compares its estimated allocation with the machine's physical memory. Here
that reading is patched down to a few MB, so every refusal is checked without
allocating anything large, and each estimate is checked against what
tracemalloc sees the step allocate.
"""

import tracemalloc

import numpy as np
import pytest

from krabi import _sectors, cli, errors, model, riccati, spectra
from krabi.cli import run
from krabi.model import ModelParams, build_blocks
from krabi.parity import bosonic_parity_signs, generalized_parity_signs, two_photon_parity_signs
from krabi.spectra import EvolutionSpec, evolve, ground_state, sector_spectrum

#: The patched physical memory, in bytes.
MEMORY = 4_000_000


@pytest.fixture
def small_memory(monkeypatch):
    monkeypatch.setattr(errors, "_physical_memory", lambda: float(MEMORY))


def model_argv(k, dim):
    return ["--k", str(k), "--dim", str(dim), "--alpha", "0.7", "--omega", "1", "--g", "0.3+0.1i"]


def traced_peak(call):
    """Peak of the bytes traced while ``call()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestRefusal:
    @pytest.mark.parametrize("argv,what", [
        (["spectrum", *model_argv(1, 512), "--levels", "2"],
         "solving 2 sector matrices of size 512"),
        (["evolve", *model_argv(1, 512), "--t-max", "1", "--steps", "2"],
         "solving 2 sector matrices of size 512"),
        (["evolve", *model_argv(4, 1024), "--t-max", "1", "--steps", "2", "--state", "ground"],
         "solving 8 sector matrices of size 256"),
        (["verify", *model_argv(1, 256), "--spectra"],
         "building the dense blocks at dim = 256"),
        (["verify", *model_argv(2, 256), "--dump", "residual.txt", "--out", "report.json"],
         "building the dense blocks at dim = 256"),
        (["verify", *model_argv(1, 100000), "--out", "report.json"],
         "verifying the parity at dim = 100000"),
        (["parity-table", "--k", "3", "--dim", "400000", "--out", "table.csv"],
         "tabulating the parity at dim = 400000"),
        (["sweep", *model_argv(2, 256), "--levels", "2", "--param", "g", "--lo", "0",
          "--hi", "0.1", "--steps", "2"], "building the dense blocks at dim = 256"),
        # Past the band's own size: refused before the band is built.
        (["spectrum", *model_argv(1, 10**6), "--levels", "2"],
         "solving 2 sector matrices of size 1000000"),
        (["evolve", *model_argv(1, 10**6), "--t-max", "1", "--steps", "2"],
         "solving 2 sector matrices of size 1000000"),
        (["sweep", *model_argv(1, 10**6), "--levels", "2", "--param", "g", "--lo", "0",
          "--hi", "0.1", "--steps", "2"], "building the dense blocks at dim = 1000000"),
    ], ids=["spectrum", "evolve", "evolve-k4", "verify-spectra", "verify-dump", "verify",
            "parity-table", "sweep", "spectrum-band", "evolve-band", "sweep-band"])
    def test_one_error_line_before_any_large_allocation(self, capsys, monkeypatch, tmp_path,
                                                        small_memory, argv, what):
        monkeypatch.chdir(tmp_path)
        run(["spectrum", *model_argv(1, 8), "--levels", "1"])  # builds the cached parser
        capsys.readouterr()
        peak, code = traced_peak(lambda: run(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not any(tmp_path.iterdir())
        assert err.startswith(f"error: {what} needs about ")
        assert err.endswith(f" MB, more than the {MEMORY / 1e6:.1f} MB of physical memory\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert peak < MEMORY / 4

    def test_full_matrix_is_refused_after_the_blocks(self, capsys, monkeypatch, tmp_path):
        # At dim 170 the dense blocks (128*dim^2 = 3699200 bytes) fit in 3.71 MB and the full
        # 2*dim solve (128*dim^2 + 128*dim = 3720960 bytes) does not: no report and no
        # residual file is written.
        monkeypatch.setattr(errors, "_physical_memory", lambda: 3_710_000.0)
        monkeypatch.chdir(tmp_path)
        code = run(["verify", *model_argv(1, 170), "--spectra", "--dump", "residual.txt"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and not any(tmp_path.iterdir())
        assert err == ("error: solving the full 2*dim matrix at dim = 170 needs about 3.7 MB, "
                       "more than the 3.7 MB of physical memory\n")

    def test_message_gives_the_estimate(self, small_memory):
        # 8 * (2*512^2 stack + 512^2 copy + 16*512 band words) bytes.
        with pytest.raises(MemoryError, match=r"needs about 6\.4 MB, more than the 4\.0 MB of"):
            sector_spectrum(ModelParams(alpha=0.7, omega=1.0, g=0.3, k=1, dim=512), 2)

    def test_verify_without_dense_matrices_is_not_refused(self, capsys, small_memory):
        assert run(["verify", *model_argv(1, 4096)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", *model_argv(2, 32), "--levels", "3"],
        ["evolve", *model_argv(1, 32), "--t-max", "1", "--steps", "20"],
        ["verify", *model_argv(2, 32), "--spectra"],
    ])
    def test_small_requests_run(self, capsys, small_memory, argv):
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    def test_library_steps_raise_memory_error(self, small_memory):
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3, k=1, dim=512)
        with pytest.raises(MemoryError, match="^solving 2 sector matrices of size 512 "):
            _sectors.sector_eigensystem(params)
        with pytest.raises(MemoryError, match="^building the dense blocks at dim = 512 "):
            build_blocks(params)

    def test_similarity_transform_is_refused_before_its_matrices(self, small_memory):
        # 16*10*dim^2 + 2**19 bytes at dim 160: 4.6 MB. Only the Hermiticity check's
        # adjoint and difference are allocated before the refusal.
        x = np.diag(generalized_parity_signs(2, 160).astype(np.complex128))

        def transform():
            with pytest.raises(MemoryError, match=r"^building the similarity transform at "
                               r"dim = 160 needs about 4\.6 MB, more than the 4\.0 MB of "):
                riccati.similarity_transform(x)

        peak, _ = traced_peak(transform)
        assert peak < MEMORY / 4

    def test_evolve_refuses_its_states_before_solving(self, monkeypatch):
        # 10**12 + 1 states of 16 components: 2.6e14 bytes, past any machine's memory.
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3, k=1, dim=8)
        spec = EvolutionSpec(initial_state=ground_state(params), dt=1e-3, steps=10**12)

        def solve(*_args):
            raise AssertionError("solved before the size guard")

        monkeypatch.setattr(spectra, "sector_eigensystem", solve)
        with pytest.raises(MemoryError, match=r"^evolving 1000000000001 states of 16 components "
                                              r"needs about 2560000\d\d\.\d MB, more than the "):
            evolve(params, spec)

    def test_physical_memory_is_read_once(self):
        assert errors._physical_memory() is errors._physical_memory()
        assert errors._physical_memory() > 0


class TestEstimates:
    """Each estimate is at least the bytes its step allocates, as tracemalloc sees them."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        recorded = []

        def record(nbytes, request):
            recorded.append(nbytes)

        for module in (_sectors, cli, model, riccati, spectra):
            monkeypatch.setattr(module, "_require_memory", record)
        return recorded

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("dim", [64, 130, 256])
    @pytest.mark.parametrize("step", ["levels", "eigensystem"])
    def test_sector_solve(self, estimates, k, dim, step):
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=k, dim=dim)
        solve = getattr(_sectors, f"sector_{step}")
        peak, _ = traced_peak(lambda: solve(params))
        assert len(estimates) == 1 and peak <= estimates[0]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dim", [64, 130, 256])
    def test_dense_blocks(self, estimates, k, dim):
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=k, dim=dim)
        peak, _ = traced_peak(lambda: build_blocks(params))
        assert len(estimates) == 1 and peak <= estimates[0]

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("dim", [64, 130, 256])
    @pytest.mark.parametrize("steps", [1, 40, 300])
    def test_evolve_states(self, monkeypatch, estimates, k, dim, steps):
        # The eigensystem is solved outside the trace: the solve has its own estimate.
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=k, dim=dim)
        system = _sectors.sector_eigensystem(params)
        spec = EvolutionSpec(initial_state=spectra._ground_state(system), dt=0.05, steps=steps)
        monkeypatch.setattr(spectra, "sector_eigensystem", lambda _params: system)
        estimates.clear()
        peak, (times, states) = traced_peak(lambda: evolve(params, spec))
        assert len(estimates) == 1 and peak <= estimates[0]
        assert states.shape == (steps + 1, 2 * dim) and np.isfinite(states).all()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dim", [64, 130, 256, 300, 400])
    def test_full_spectrum_solve(self, estimates, k, dim):
        # The full matrix, 64*dim^2 bytes, is the traced peak; LAPACK's copy is not traced.
        params = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=k, dim=dim)
        blocks, signs = build_blocks(params), generalized_parity_signs(k, dim)
        estimates.clear()
        peak, _ = traced_peak(lambda: riccati._spectra_match(blocks, signs))
        assert len(estimates) == 1 and peak <= estimates[0]
        assert peak <= 64 * dim**2 + 64 * dim + 8192

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("dim", [128, 256, 300])
    def test_sweep_point(self, estimates, k, dim):
        # Four dim x dim complex matrices at once, 64*dim^2 bytes: the blocks with the
        # Hermiticity check's temporaries, then the blocks with their one stacked, shifted
        # copy. No parity matrix is built. The Hermiticity check's a - a^dag reads a transposed
        # operand through numpy's buffer of 8192 complex entries, 2**17 bytes beside them.
        base = ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=k, dim=dim)
        spec = spectra.SweepSpec(base=base, param="g", lo=0.0, hi=0.3, steps=2, levels=2)
        peak, rows = traced_peak(lambda: spectra.sweep(spec))
        assert len(rows) == 2 * 2 * 2
        assert peak <= 64 * dim**2 + 64 * dim + 2**18
        assert estimates and peak <= min(estimates) == 128 * dim**2

    @pytest.mark.parametrize("dim", [128, 256, 300])
    @pytest.mark.parametrize("dtype", [np.int64, np.complex128])
    def test_similarity_transform(self, estimates, dim, dtype):
        # An int parity is copied as complex inside the trace; both results are filled in place.
        x = np.diag(generalized_parity_signs(2, dim)).astype(dtype)
        peak, (s, s_inv) = traced_peak(lambda: riccati.similarity_transform(x))
        assert len(estimates) == 1 and peak <= estimates[0]
        assert s.shape == s_inv.shape == (2 * dim, 2 * dim)

    @pytest.mark.parametrize("dim", [200, 256, 300])
    def test_full_matrix_is_one_allocation(self, dim):
        # The 2*dim matrix is filled in place: no block rows or alpha*I beside it.
        blocks = build_blocks(ModelParams(alpha=0.7, omega=1.0, g=0.3 + 0.1j, k=1, dim=dim))
        peak, full = traced_peak(blocks.full_matrix)
        assert full.shape == (2 * dim, 2 * dim) and peak <= 64 * dim**2 + 8192

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dim", [64, 130, 256])
    def test_residual_dump_within_the_blocks(self, capsys, tmp_path, estimates, k, dim):
        # The residual and its file, written one row at a time, need no estimate of their own:
        # the whole command stays within the dense blocks' estimate.
        argv = ["verify", *model_argv(k, dim), "--dump", str(tmp_path / "residual.txt")]
        cli._parser()  # built once per process, outside the trace
        peak, code = traced_peak(lambda: run(argv))
        assert code == 0 and capsys.readouterr().err == ""
        band, blocks = estimates
        assert band == 64 * dim and peak <= blocks

    # Below a few thousand Fock states the report's and the parser's own objects outweigh
    # these O(dim) arrays; no guard is needed there.
    @pytest.mark.parametrize("dim", [4096, 200000])
    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "3", "--alpha", "0.7", "--omega", "1", "--g", "0.3+0.1i"],
        ["verify", "--k", "1", "--alpha", "0.7", "--omega", "1", "--g", "0", "--candidate", "t"],
        ["parity-table", "--k", "1"],
        ["parity-table", "--k", "3"],
    ], ids=["verify", "verify-t", "parity-table", "parity-table-k3"])
    def test_band_verdict_and_parity_table(self, tmp_path, estimates, argv, dim):
        command = [*argv, "--dim", str(dim), "--out", str(tmp_path / "out.txt")]
        run(command)  # builds the cached parser
        estimates.clear()
        peak, code = traced_peak(lambda: run(command))
        assert code == 0
        assert len(estimates) == 1 and peak <= estimates[0]

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_parity_signs_take_one_vector(self, k):
        # The signs are built in place: the int64 result and a few hundred bytes of overhead.
        dim = 200000
        peak, signs = traced_peak(lambda: generalized_parity_signs(k, dim))
        assert signs.shape == (dim,) and peak <= 8 * dim + 4096

    @pytest.mark.parametrize("build", [bosonic_parity_signs, two_photon_parity_signs],
                             ids=["bosonic", "two-photon"])
    def test_special_parity_signs_take_one_vector(self, build):
        dim = 200000
        peak, signs = traced_peak(lambda: build(dim))
        assert signs.shape == (dim,) and peak <= 8 * dim + 4096


class TestStreamedEvolve:
    def test_cli_peak_does_not_grow_with_steps(self, capsys, tmp_path):
        # krabi evolve --out streams its CSV: the span buffers and the formatter's work
        # arrays are allocated once per call, so ten times the steps adds only the
        # 8-byte time grid, well within one span's three buffers.
        dim = 256
        path = tmp_path / "trajectory.csv"

        def peak(steps):
            argv = ["evolve", *model_argv(2, dim), "--t-max", "1", "--steps", str(steps),
                    "--out", str(path)]
            traced, code = traced_peak(lambda: run(argv))
            assert code == 0 and capsys.readouterr() == ("", "")
            assert path.stat().st_size > (steps + 1) * 2 * dim * 50  # every row written
            return traced

        peak(200)  # builds the cached parser and the formatter's tables
        span_buffers = 3 * 16 * 2 * dim * spectra._steps_per(2 * dim)[1]
        assert abs(peak(2000) - peak(200)) <= span_buffers
