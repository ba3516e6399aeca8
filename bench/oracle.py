"""Independent correctness oracle for the benchmark.

Builds the full 2*dim Hamiltonian [[omega*n + W, alpha*I], [alpha*I,
omega*n - W]] with W = conj(g)*a^k + g*(a^dag)^k straight from the
formula, in numpy, without calling into krabi: a defect in krabi.model
must not be able to hide from its own check.

Every check returns its largest deviation as a share of its tolerance, so
a value above 1.0 is a failure:

- levels: within LEVEL_RTOL of the oracle's spectral spread;
- evolved states: within STATE_ATOL of exact propagation of the initial
  state (the input file's vector, or the state at t = 0 for ground);
- ground states: eigen-residual ||H psi - E0 psi|| and norm defect within
  GROUND_ATOL.
"""

from __future__ import annotations

import numpy as np

LEVEL_RTOL = 1e-9
STATE_ATOL = 1e-8
GROUND_ATOL = 1e-8


def hamiltonian(alpha: float, omega: float, g: complex, k: int, dim: int) -> np.ndarray:
    """Dense full Hamiltonian of the truncated k-photon Rabi model."""
    p = np.arange(k, dim)
    # <p-k| a^k |p> = sqrt(p! / (p-k)!) = prod_{j=p-k+1}^{p} sqrt(j)
    amp = np.ones(p.size)
    for j in range(k):
        amp *= np.sqrt(p - j)
    w = np.zeros((dim, dim), dtype=np.complex128)
    w[p - k, p] = np.conj(g) * amp
    w[p, p - k] = g * amp
    n = np.diag(omega * np.arange(dim, dtype=np.float64))
    v = alpha * np.eye(dim)
    return np.block([[n + w, v], [v, n - w]])


def levels(alpha, omega, g, k, dim) -> np.ndarray:
    """Ascending full spectrum of the oracle Hamiltonian."""
    return np.linalg.eigvalsh(hamiltonian(alpha, omega, g, k, dim))


def levels_deviation(w_top, w_bottom, m: int, full: np.ndarray) -> float:
    """Deviation of krabi's lowest-m block levels from the full spectrum.

    Each block list must hold m ascending values, each one an eigenvalue
    of the full Hamiltonian, and the m lowest of their union must be the m
    lowest full levels.
    """
    w_top = np.asarray(w_top, dtype=np.float64)
    w_bottom = np.asarray(w_bottom, dtype=np.float64)
    if w_top.shape != (m,) or w_bottom.shape != (m,):
        return np.inf
    if np.any(np.diff(w_top) < 0) or np.any(np.diff(w_bottom) < 0):
        return np.inf
    tol = LEVEL_RTOL * max(float(full[-1] - full[0]), 1.0)
    merged = np.sort(np.concatenate([w_top, w_bottom]))
    dev_bottom = np.max(np.abs(merged[:m] - full[:m]))
    dev_member = np.max(np.min(np.abs(full[:, None] - merged[None, :]), axis=0))
    return float(max(dev_bottom, dev_member)) / tol


def parse_sweep_csv(text: str):
    """Rows of a sweep CSV as {value: (top levels, bottom levels)}, in order."""
    lines = text.splitlines()
    if not lines or lines[0] != "param,block,level,eigenvalue":
        raise ValueError("sweep CSV header missing")
    points: dict = {}
    for line in lines[1:]:
        value, block, level, w = line.split(",")
        top, bottom = points.setdefault(float(value), ([], []))
        rows = top if block == "+" else bottom if block == "-" else None
        if rows is None or int(level) != len(rows):
            raise ValueError(f"unexpected sweep row {line!r}")
        rows.append(float(w))
    return points


def sweep_deviation(text: str, base: dict, param: str, lo: float, hi: float,
                    steps: int, m: int) -> float:
    """Deviation of a sweep CSV from the oracle at every grid point."""
    points = parse_sweep_csv(text)
    grid = np.linspace(lo, hi, steps)
    if len(points) != steps or not np.array_equal(np.array(list(points)), grid):
        return np.inf
    dev = 0.0
    for value, (top, bottom) in points.items():
        p = dict(base)
        if param == "g":
            p["g"] = value * np.exp(1j * np.angle(base["g"]))
        else:
            p[param] = value
        dev = max(dev, levels_deviation(top, bottom, m, levels(**p)))
    return dev


def parse_trajectory_csv(text: str, n_times: int, size: int):
    """(times, states) from an evolve CSV with n_times blocks of size rows."""
    header, _, body = text.partition("\n")
    if header != "t,component_index,re,im":
        raise ValueError("trajectory CSV header missing")
    data = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=np.float64)
    if data.size != 4 * n_times * size:
        raise ValueError(f"trajectory CSV holds {data.size // 4} rows, "
                         f"expected {n_times * size}")
    data = data.reshape(n_times, size, 4)
    if not np.array_equal(data[:, :, 1], np.broadcast_to(np.arange(size), (n_times, size))):
        raise ValueError("trajectory CSV component indices out of order")
    if np.any(data[:, :, 0] != data[:, :1, 0]):
        raise ValueError("trajectory CSV time column varies within a state")
    return data[:, 0, 0], data[:, :, 2] + 1j * data[:, :, 3]


def trajectory_deviation(text: str, params: dict, t_max: float, steps: int,
                         initial) -> float:
    """Deviation of an evolve CSV from the oracle.

    ``initial`` is the state vector written to the input file, or None for
    ``--state ground``: then the state at t = 0 must be a normalized
    eigenvector of the lowest level, and the rest is propagated from it.
    """
    h = hamiltonian(**params)
    size = h.shape[0]
    times, states = parse_trajectory_csv(text, steps + 1, size)
    expected_times = np.arange(steps + 1) * (t_max / steps)
    dev_t = float(np.max(np.abs(times - expected_times)))
    if dev_t > 1e-12 * t_max:
        return np.inf
    w, v = np.linalg.eigh(h)
    ground_dev = 0.0
    if initial is None:
        initial = states[0]
        resid = np.linalg.norm(h @ initial - w[0] * initial)
        ground_dev = max(resid, abs(np.linalg.norm(initial) - 1.0)) / GROUND_ATOL
    coeff = v.conj().T @ np.asarray(initial)
    exact = (v @ (coeff[:, None] * np.exp(-1j * np.outer(w, times)))).T
    return max(ground_dev, float(np.max(np.abs(states - exact))) / STATE_ATOL)
