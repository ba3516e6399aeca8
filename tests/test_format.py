"""The vectorized '%.16e' kernel against Python's own formatting, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krabi import spectra
from krabi._format import WIDTH, Workspace, format_fields, vector_fields
from krabi.model import ModelParams
from krabi.spectra import EvolutionSpec, evolve, ground_state, trajectory_csv


def field_lines(fields) -> str:
    """The text of each zero-padded field, one per line."""
    fields = fields.view(np.uint8).reshape(-1, WIDTH)
    lines = np.concatenate([fields, np.full((len(fields), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def kernel_lines(values) -> str:
    return field_lines(format_fields(values))


def python_lines(values) -> str:
    return "".join("%.16e\n" % v for v in np.ravel(np.asarray(values, dtype=np.float64)).tolist())


def assert_same_text(values):
    got, want = kernel_lines(values), python_lines(values)
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines(), np.ravel(values))
        bad = [(repr(float(v)), g, w) for g, w, v in pairs if g != w]
        pytest.fail(f"{len(bad)} mismatches, first: {bad[:5]}")


def log_uniform_doubles(rng, n):
    """Finite doubles with uniform sign, binary exponent (subnormals included) and mantissa."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


def exact_ties():
    """Doubles whose exact decimal expansion has 18 digits ending in 5: '%.16e' ties."""
    ties = []
    for j in range(1, 64):
        five = 5**j
        # m * 2**-j = m * 5**j / 10**j has len(str(m * 5**j)) significant digits.
        low, high = -(-10**17 // five), (10**18 - 1) // five
        for m in range(low | 1, min(high, low + 400) + 1, 2):
            if m < 2**53:
                ties.append(m / 2**j)
    return np.array(ties)


class TestByteIdentity:
    def test_a_million_log_uniform_doubles(self):
        values = log_uniform_doubles(np.random.default_rng(20261018), 10**6)
        assert_same_text(values)
        # The vector path, not the fallback, produced almost all in-range values.
        in_range = (np.abs(values) >= 1e-280) & (np.abs(values) <= 1e280)
        assert vector_fields(values[in_range])[1].mean() < 1e-4

    def test_decimal_range_of_physical_amplitudes(self):
        rng = np.random.default_rng(7)
        values = rng.choice([-1.0, 1.0], 10**5) * 10 ** rng.uniform(-30, 30, 10**5)
        assert_same_text(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_hypothesis_floats(self, values):
        assert_same_text(values)

    def test_zeros_and_extremes(self):
        tiny = [5e-324, 2.0**-1074 * 3, 2.2250738585072014e-308, 2.225073858507201e-308]
        huge = [2.0**1023, 1.7976931348623157e308, 1e280, 1e-280]
        values = [0.0, -0.0, *tiny, *huge]
        assert_same_text(values + [-v for v in values])

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert_same_text(np.concatenate([values, -values]))

    def test_exponent_digit_switch(self):
        for e in (99, 100, -99, -100, -101):
            x = float(f"1e{e}")
            assert_same_text([np.nextafter(x, 0), x, np.nextafter(x, np.inf)])

    def test_values_rounding_up_to_the_next_decade(self):
        nines = np.array([float(f"9.99999999999999995e{e}") for e in range(-300, 300)])
        values = np.concatenate([nines, np.nextafter(nines, 0), np.nextafter(nines, np.inf)])
        assert_same_text(values)
        assert any("1.0000000000000000e" in line for line in kernel_lines(nines).splitlines())

    def test_exact_ties_and_their_neighbours(self):
        ties = exact_ties()
        assert len(ties) > 1000
        values = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
        assert_same_text(np.concatenate([values, -values]))

    def test_nearest_doubles_to_seventeen_digit_ties(self):
        rng = np.random.default_rng(3)
        digits = rng.integers(10**16, 10**17, 2000)
        exponents = rng.integers(-300, 300, 2000)
        values = np.array([float(f"{d}5e{e - 17}") for d, e in zip(digits, exponents)])
        values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
        assert_same_text(values)

    def test_output_buffer_and_shape(self):
        values = np.array([[1.5, -2.25], [0.0, math.pi]])
        out = np.zeros((2, 2, WIDTH // 4 + 1), dtype=np.uint32)[..., 1:]
        assert format_fields(values, out=out) is out
        assert field_lines(out) == python_lines(values)

    def test_non_finite_through_trajectory_csv(self):
        times = np.array([0.0, np.inf, np.nan])
        states = np.array([
            [np.nan, complex(np.inf, -np.inf)],
            [complex(-np.inf, np.nan), 1.0],
            [complex(0.0, np.nan), -0.0],
        ])
        text = trajectory_csv(times, states)
        lines = ["t,component_index,re,im"] + [
            f"{t:.16e},{idx},{z.real:.16e},{z.imag:.16e}"
            for t, state in zip(times, states) for idx, z in enumerate(state)
        ]
        assert text == "\n".join(lines) + "\n"
        assert "inf,0,-inf,nan\n" in text


class TestFallbackRate:
    """The Python fallback stays rare on real trajectories (zeros stay vectorized)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("state", ["ground", "random"])
    def test_evolved_trajectories(self, k, state):
        rng = np.random.default_rng(k)
        params = ModelParams(alpha=0.2 + rng.random(), omega=0.5 + rng.random(),
                             g=(0.02 + 0.28 * rng.random()) * np.exp(2j * np.pi * rng.random()),
                             k=k, dim=128)
        if state == "ground":
            initial = ground_state(params)
        else:
            initial = rng.normal(size=256) + 1j * rng.normal(size=256)
            initial /= np.linalg.norm(initial)
        times, states = evolve(params, EvolutionSpec(initial_state=initial, dt=0.02, steps=50))
        values = states.view(np.float64)
        fallback = vector_fields(values)[1].sum() + vector_fields(times)[1].sum()
        assert fallback < 1e-3 * (values.size + times.size)


def ordinary_block():
    """4096 values of an evolved trajectory (8 steps of 256 components, re and im):
    nonzero, in range and, as the assertion checks, all on the vector path."""
    params = ModelParams(alpha=0.7, omega=1.1, g=0.2 - 0.1j, k=1, dim=128)
    rng = np.random.default_rng(30)
    initial = rng.normal(size=256) + 1j * rng.normal(size=256)
    spec = EvolutionSpec(initial_state=initial / np.linalg.norm(initial), dt=0.015, steps=7)
    values = evolve(params, spec)[1].view(np.float64).ravel()
    assert values.size == 4096 and not vector_fields(values)[1].any()
    return values


#: One value for each case the kernel handles only when a call holds one.
RARE = {
    "+0": 0.0,
    "-0": -0.0,
    "smallest-subnormal": 5e-324,
    "below-1e-280": 1e-281,
    "above-1e280": 1e281,
    "nan": math.nan,
    "inf": math.inf,
    "exact-tie": float(exact_ties()[0]),
    # 9.95209450162546314999999982...e-10: 2e-8 of a 17th-digit unit below a decimal tie,
    # where the scale 10**25 is not a double.
    "near-tie": 9.952094501625463e-10,
    # The largest double below 1e-5, whose log10 is -5.0: scaled for that decade it
    # rounds up to 10**16, into the next one, though '%.16e' keeps it below 1e-5.
    "next-decade": float(np.nextafter(1e-5, 0)),
}


class TestGuardedBranches:
    """Each rare value, alone at the start, middle or end of an ordinary 4096-value
    block, through the kernel and through the trajectory writer."""

    CASES = [("none", None)] + [(name, at) for name in RARE for at in (0, 2048, 4095)]

    @pytest.fixture(scope="class")
    def ordinary(self):
        return ordinary_block()

    @staticmethod
    def block(ordinary, name, at):
        values = ordinary.copy()
        if at is not None:
            values[at] = RARE[name]
        return values

    def test_each_value_takes_its_branch(self):
        fallback = vector_fields(np.array(list(RARE.values())))[1]
        # Zeros and exact ties stay on the vector path; the rest go to Python's %.
        assert dict(zip(RARE, fallback.tolist())) == {
            name: name not in ("+0", "-0", "exact-tie") for name in RARE}
        assert np.log10(RARE["next-decade"]) == -5.0
        assert kernel_lines([RARE["next-decade"]]) == "9.9999999999999991e-06\n"

    @pytest.mark.parametrize("name,at", CASES, ids=[f"{n}-{a}" for n, a in CASES])
    def test_format_fields(self, ordinary, name, at):
        values = self.block(ordinary, name, at)
        work = Workspace(values.size)
        got = field_lines(format_fields(values, work=work))
        # The same work arrays then format the ordinary block: nothing carries over.
        again = field_lines(format_fields(ordinary, work=work))
        assert got == python_lines(values) and again == python_lines(ordinary)

    @pytest.mark.parametrize("name,at", CASES, ids=[f"{n}-{a}" for n, a in CASES])
    def test_csv_chunks(self, ordinary, name, at):
        # Two chunks of 8 steps of 256 components: the rare value, then the ordinary block.
        values = np.concatenate([self.block(ordinary, name, at), ordinary])
        states = values.view(np.complex128).reshape(16, 256)
        times = np.arange(16) * 0.015
        got = b"".join(spectra._csv_chunks(times, lambda start, stop: states[start:stop], 256))
        lines = ["t,component_index,re,im"] + [
            "%.16e,%d,%.16e,%.16e" % (t, idx, z.real, z.imag)
            for t, state in zip(times.tolist(), states.tolist()) for idx, z in enumerate(state)
        ]
        assert got == ("\n".join(lines) + "\n").encode("ascii")
