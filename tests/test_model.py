"""Plant model primitives: parameter validation and cost accounting."""
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

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
    # stable loop on a ramp of noise whose step 4 is a reset
    horizon = 15
    coeff = np.array([[10.0] * horizon, [-10.0] * horizon, [0.5] * horizon])
    noise = np.zeros((3, horizon))
    noise[2] = np.arange(1.0, horizon + 1.0)
    reset = np.zeros((3, horizon), dtype=bool)
    reset[2, 4] = True
    # the kernel writes its states over the noise it is given, and carries
    # the state at every step but the reset
    states, diverged = simulate_loop(coeff, noise.copy(), DIVERGENCE_GUARD, x0=1.0, carry=~reset)
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
