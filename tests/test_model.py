"""Plant model primitives: parameter validation and cost accounting."""
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from wncs import model
from wncs.model import (
    DIVERGENCE_GUARD,
    GainPair,
    NoisePowers,
    PlantParams,
    predicted_cost_slow,
    simulate_loop,
)


def test_plant_params_requires_unstable_dynamics():
    PlantParams(a=1.5, sigma_w2=0.1)
    PlantParams(a=-1.2, sigma_w2=0.1)
    with pytest.raises(ValueError):
        PlantParams(a=1.0, sigma_w2=0.1)
    with pytest.raises(ValueError):
        PlantParams(a=0.4, sigma_w2=0.1)
    with pytest.raises(ValueError):
        PlantParams(a=1.5, sigma_w2=-1.0)
    # a finite gain whose square overflows is refused with the non-finite ones
    for a, sigma_w2 in [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1), (1e200, 0.1),
                        (1.5, math.nan), (1.5, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            PlantParams(a=a, sigma_w2=sigma_w2)


def test_noise_powers_validation_and_derived_ratios():
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    assert noise.gamma0 == pytest.approx(1e6)
    plant = PlantParams(a=1.5, sigma_w2=0.1)
    assert noise.ssr(plant) == pytest.approx(1e6)
    with pytest.raises(ValueError):
        NoisePowers(sigma_z2=0.0, p0=0.1)
    with pytest.raises(ValueError):
        NoisePowers(sigma_z2=1e-7, p0=-0.1)
    for sigma_z2, p0 in [(math.nan, 0.1), (math.inf, 0.1), (1e-7, math.nan), (1e-7, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            NoisePowers(sigma_z2=sigma_z2, p0=p0)
    # finite powers whose ratios overflow are refused by the ratio's name
    with pytest.raises(ValueError, match="p0/sigma_z2"):
        NoisePowers(sigma_z2=1e-7, p0=1e308)
    with pytest.raises(ValueError, match="sigma_w2/sigma_z2"):
        noise.ssr(PlantParams(a=1.5, sigma_w2=1e308))


def test_gain_pair_product():
    pair = GainPair(k=-0.5, g=120.0)
    assert pair.product == pytest.approx(-60.0)


def test_predicted_cost_slow_closed_form_value():
    plant = PlantParams(a=1.5, sigma_w2=0.1)
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    gains = GainPair(k=-0.431740662898458, g=138.97231638362382)
    j = predicted_cost_slow(plant, noise, gains, h=0.01)
    a_c = 1.5 + gains.g * 0.01 * gains.k
    assert a_c == pytest.approx(0.9, abs=1e-12)
    assert j == pytest.approx((gains.g**2 * 1e-7 + 0.1) / (1.0 - 0.81), rel=1e-12)
    assert j == pytest.approx(0.5364806866952798, rel=1e-12)


def test_predicted_cost_slow_unbounded_sentinel():
    plant = PlantParams(a=1.5, sigma_w2=0.1)
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    # an unstable closed loop has no steady state: the cost is inf
    assert predicted_cost_slow(plant, noise, GainPair(k=0.0, g=1.0), h=0.01) == math.inf
    # |a_c| = 1 exactly is unbounded too
    gains = GainPair(k=-1.0, g=50.0)  # a_c = 1.5 - 0.5 = 1.0
    assert predicted_cost_slow(plant, noise, gains, h=0.01) == math.inf
    for h in (0.0, math.nan, math.inf, 1e200):
        with pytest.raises(ValueError):
            predicted_cost_slow(plant, noise, gains, h=h)


def test_predicted_cost_matches_long_simulation():
    # one fixed stable loop, simulated straight from the recursion
    plant = PlantParams(a=1.5, sigma_w2=0.1)
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    gains = GainPair(k=-0.9887986510292314, g=150.19726344747818)
    h = 0.01
    a_c = plant.a + gains.g * h * gains.k
    rng = np.random.default_rng(3)
    replicas, horizon = 2000, 400
    z = rng.normal(0.0, math.sqrt(noise.sigma_z2), (replicas, horizon))
    w = rng.normal(0.0, math.sqrt(plant.sigma_w2), (replicas, horizon))
    x = np.zeros(replicas)
    states = np.empty((replicas, horizon))
    for t in range(horizon):
        x = a_c * x + gains.g * z[:, t] + w[:, t]
        states[:, t] = x
    sim = float(np.mean(states**2))
    pred = predicted_cost_slow(plant, noise, gains, h)
    assert sim == pytest.approx(pred, rel=0.02)



def test_simulate_loop_clamps_at_the_guard_flags_and_resets():
    # replicas 0 and 1 grow by 10 and -10 a step from x0 = 1; replica 2 is a
    # stable loop on a ramp of noise whose step 4 has factor 0, a reset
    horizon = 15
    coeff = np.array([[10.0] * horizon, [-10.0] * horizon, [0.5] * horizon])
    coeff[2, 4] = 0.0
    noise = np.zeros((3, horizon))
    noise[2] = np.arange(1.0, horizon + 1.0)
    # the kernel writes its states over the noise it is given
    states, diverged = simulate_loop(coeff, noise.copy(), DIVERGENCE_GUARD, x0=1.0)
    # +-10^(t+1) lands on the guard at t = 11, which is not past it; from
    # t = 12 on each state is clamped to exactly the guard, sign kept
    assert_array_equal(states[0, :12], 10.0 ** np.arange(1, 13))
    assert_array_equal(states[1, :12], (-10.0) ** np.arange(1, 13))
    assert states[0, 12] == DIVERGENCE_GUARD and states[1, 12] == -DIVERGENCE_GUARD
    assert_array_equal(np.abs(states[:2, 12:]), DIVERGENCE_GUARD)
    assert diverged.tolist() == [True, True, False]
    # the reset step restarts from its own noise alone, then the loop resumes
    x, expected = 1.0, []
    for t in range(horizon):
        x = noise[2, t] if t == 4 else 0.5 * x + noise[2, t]
        expected.append(x)
    assert states[2, 4] == 5.0
    assert_array_equal(states[2], expected)


def test_simulate_loop_gates_with_a_guard_whose_square_overflows():
    # a guard of 1e200 squares to inf: replica 0 grows by 1e100 a step from
    # x0 = 1, lands on the guard at t = 1 and passes it at t = 2, where it is
    # clamped and flagged all the same, with no overflow warning
    coeff = np.array([[1e100] * 5, [0.5] * 5])
    states, diverged = simulate_loop(coeff, np.zeros((2, 5)), 1e200, x0=1.0)
    assert_array_equal(states[0], [1e100, 1e200, 1e200, 1e200, 1e200])
    assert_array_equal(states[1], 0.5 ** np.arange(1, 6))
    assert diverged.tolist() == [True, False]


def test_a_zero_factor_after_an_overflow_is_replayed_without_a_warning():
    # unclamped, replica 0 overflows to inf at step 1, and the zero factor
    # of step 2 makes inf * 0 = NaN; the window is stepped again with the
    # clamp, so step 2 restarts from its noise, and no warning is raised
    coeff = np.full((2, 6), 0.5)
    coeff[0, :2] = 1e200
    coeff[0, 2] = 0.0
    noise = np.arange(12.0).reshape(2, 6)
    states, diverged = simulate_loop(coeff, noise.copy(), DIVERGENCE_GUARD, x0=1.0)
    assert_array_equal(states[0, :3], [DIVERGENCE_GUARD, DIVERGENCE_GUARD, 2.0])
    assert diverged.tolist() == [True, False]


def test_a_nan_state_is_flagged_and_does_not_hide_others_past_the_guard():
    # x0 = 0 times an inf factor makes replica 0 NaN from step 0 on, so every
    # later row's sum of squares is NaN; replica 1's inf factor at step 18
    # must still be clamped and flagged, and the NaN replica flagged too
    coeff = np.full((9, 37), 0.5)
    coeff[0, 0] = coeff[1, 18] = math.inf
    noise = np.random.default_rng(9).standard_normal((9, 37))
    states, diverged = simulate_loop(coeff, noise.copy(), DIVERGENCE_GUARD)
    assert np.isnan(states[0]).all()
    assert abs(states[1, 18]) == DIVERGENCE_GUARD
    assert np.isfinite(states[1:]).all()
    assert diverged.tolist() == [True, True] + [False] * 7
    with np.errstate(invalid="ignore"):
        expected, expected_diverged = _reference_loop(coeff, noise.copy(), DIVERGENCE_GUARD)
    assert states.tobytes() == expected.tobytes()
    assert_array_equal(diverged, expected_diverged)


def _reference_loop(coeff, noise, guard, x0=0.0, carry=None):
    """The kernel stepped one replica-major column at a time, with the guard
    checked at every step: the arithmetic ``simulate_loop`` must reproduce.
    At every step outside the optional ``carry`` mask the state is n_t alone."""
    replicas, horizon = noise.shape
    per_step = not np.isscalar(coeff)
    x = np.full(replicas, float(x0))
    scratch = np.empty(replicas)
    diverged = np.zeros(replicas, dtype=bool)
    with np.errstate(over="ignore"):
        for t in range(horizon):
            col = noise[:, t]
            np.multiply(x, coeff[:, t] if per_step else coeff, out=scratch)
            np.add(col, scratch, out=col, where=True if carry is None else carry[:, t])
            if not col @ col < guard * guard:
                diverged |= ~(np.abs(col, out=scratch) <= guard)
                np.clip(col, -guard, guard, out=col)
            x = col
    return noise, diverged


def _kernel_case(kind, replicas, horizon):
    """(coeff, noise, x0, carry) of one seeded block of the named kind; a
    ``carry`` mask is the reference's, which the kernel gets as factor 0."""
    rng = np.random.default_rng([replicas, horizon])
    noise = rng.standard_normal((replicas, horizon))
    coeff, x0, carry = 0.9, 0.0, None
    if kind in ("fast", "zero-factor"):
        coeff = 0.5 + np.abs(rng.standard_normal((replicas, horizon)))
    if kind == "zero-factor":
        carry = rng.random((replicas, horizon)) > 0.3
    if kind == "huge-x0":
        x0 = 1e13  # past the guard from the first step: replays from step 0
    if kind == "nan":
        noise[replicas // 2, horizon // 2] = math.nan
    if kind == "unstable":
        coeff = 3.0
    if kind == "inf-factor":
        coeff = np.full((replicas, horizon), 0.5)
        coeff[0, horizon // 2] = math.inf  # an inf state: clamped and flagged
    return coeff, noise, x0, carry


@pytest.mark.parametrize("window", [1, 3, None, 1000], ids=["1", "3", "default", "past-horizon"])
@pytest.mark.parametrize("horizon", [37, 70])
@pytest.mark.parametrize("kind", ["slow", "fast", "zero-factor", "huge-x0", "nan", "unstable",
                                  "inf-factor"])
def test_simulate_loop_matches_the_per_column_reference(monkeypatch, window, horizon, kind):
    # every window size steps the same arithmetic as one column at a time:
    # states and diverged flags are equal bit for bit, over a last window
    # shorter than the rest.  A zero factor restarts the state from n_t, as
    # the reference's mask does
    if window is not None:
        monkeypatch.setattr(model, "_WINDOW", window)
    coeff, noise, x0, carry = _kernel_case(kind, 9, horizon)
    kernel_coeff = coeff if carry is None else np.where(carry, coeff, 0.0)
    with np.errstate(invalid="ignore"):
        expected, expected_diverged = _reference_loop(coeff, noise.copy(), DIVERGENCE_GUARD, x0,
                                                      carry)
    states, diverged = simulate_loop(kernel_coeff, noise.copy(), DIVERGENCE_GUARD, x0)
    assert states.tobytes() == expected.tobytes()
    assert_array_equal(diverged, expected_diverged)
    if kind in ("huge-x0", "unstable"):
        assert diverged.all()


def test_two_threads_stepping_at_once_equal_one_thread():
    # each thread steps blocks of every kind, 262 rows as in a default
    # analog cell, with the interpreter switching threads far more often
    # than by default; states and flags equal those stepped on one thread
    cases = [_kernel_case(kind, 262, 70) for kind in ("slow", "fast", "zero-factor", "unstable")]

    def step_all():
        out = []
        for coeff, noise, x0, carry in cases:
            kernel_coeff = coeff if carry is None else np.where(carry, coeff, 0.0)
            states, diverged = simulate_loop(kernel_coeff, noise.copy(), DIVERGENCE_GUARD, x0)
            out.append((states.tobytes(), diverged.tobytes()))
        return out

    alone = step_all()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as threads:
            concurrent = list(threads.map(lambda _: [step_all() for _ in range(5)], range(2),
                                          timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == [[alone] * 5] * 2


def test_the_cost_reduction_holds_one_float_per_replica():
    # 400k replicas at T = 10 in the kernel's row blocks, each a view of one
    # block made before tracing, so only the reduction's own memory counts:
    # one (replicas,) array of per-replica means, 3.05 MiB.  A list of the
    # per-block means and their concatenation held twice that, 6.1 MiB
    replicas, horizon = 400_000, 10
    rows = model.block_rows(horizon)
    block, clean = np.ones((rows, horizon)), np.zeros(rows, dtype=bool)

    def blocks():
        for start in range(0, replicas, rows):
            count = min(rows, replicas - start)
            yield block[:count], clean[:count]

    tracemalloc.start()
    try:
        cost = model.mean_cost(blocks(), replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cost == 1.0
    assert peak < 4 * 2**20


#: float64 edge values: infinities, NaN, signed zeros, subnormals and the largest magnitudes
EDGE_FLOATS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 1000) | st.sampled_from([7, 8, 9, 15, 16, 128, 129, 136, 256, 257]),
    base=st.sampled_from(["mixed", -0.0, 5e-324]),
    edges=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sum_is_numpys_sum_bit_for_bit(n, base, edges, seed):
    # floats of mixed sign and scale, whose rounding shows the order they are
    # added in, or one repeated value, with the drawn values scattered through:
    # a numpy that sums in another order fails here
    rng = np.random.default_rng(seed)
    if base == "mixed":
        values = (rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)).tolist()
    else:
        values = [base] * n
    for value, at in zip(edges, rng.integers(0, n, len(edges)) if n else []):
        values[at] = value
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.add.reduce(np.array(values, dtype=float)))
    got = model.pairwise_sum(values)
    assert type(got) is float
    assert got.hex() == expected.hex() or (math.isnan(got) and math.isnan(expected))


def test_sequential_sum_adds_left_to_right():
    # builtin sum() compensates from Python 3.12 and gives 1.0
    assert model.sequential_sum([1e16, 1.0, -1e16]) == 0.0
    assert model.sequential_sum(iter([0.5, 0.25])) == 0.75
    assert math.copysign(1.0, model.sequential_sum([-0.0])) == 1.0
