"""Plant model primitives: parameter validation and cost accounting."""
import math

import numpy as np
import pytest

from wncs.model import (
    CostReport,
    GainPair,
    NoisePowers,
    PlantCost,
    PlantParams,
    predicted_cost_slow,
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
    for a, sigma_w2 in [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
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
    for h in (0.0, math.nan, math.inf):
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


def test_cost_report_round_trip_fields():
    report = CostReport(
        j_t=1.0, per_plant=(PlantCost(0, 1.0, True),), horizon=10, j_ave_predicted=0.9
    )
    assert report.j_ave_predicted == pytest.approx(0.9)
