"""The size guard: a request larger than physical memory is refused before it is allocated.

Each guarded step (the sector eigensolve, the dense blocks, the states of
``evolve``) compares its estimated allocation with the machine's physical
memory. Here that reading is patched down to a few MB, so every refusal is
checked without allocating anything large, and each estimate is checked
against what tracemalloc sees the step allocate.
"""

import tracemalloc

import numpy as np
import pytest

from krabi import _sectors, errors, model, spectra
from krabi.cli import run
from krabi.model import ModelParams, build_blocks
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
        (["sweep", *model_argv(2, 256), "--levels", "2", "--param", "g", "--lo", "0",
          "--hi", "0.1", "--steps", "2"], "building the dense blocks at dim = 256"),
    ], ids=["spectrum", "evolve", "evolve-k4", "verify-spectra", "sweep"])
    def test_one_error_line_before_any_large_allocation(self, capsys, small_memory, argv, what):
        run(["spectrum", *model_argv(1, 8), "--levels", "1"])  # builds the cached parser
        capsys.readouterr()
        peak, code = traced_peak(lambda: run(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {what} needs about ")
        assert err.endswith(f" MB, more than the {MEMORY / 1e6:.1f} MB of physical memory\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert peak < MEMORY / 4

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

        for module in (_sectors, model, spectra):
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
