"""Designs under per-symbol fading with sign-only channel knowledge."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wncs.experiments import substream
from wncs.fast_control import (
    ETA,
    allocate_multi_fast,
    expected_ac2,
    fast_snr_floor,
    mean_channel_magnitude,
    optimize_single_fast,
    stabilizable_fast,
)
from wncs.model import NoisePowers, PlantParams
from wncs.slow_control import Infeasible

PLANT = PlantParams(a=1.5, sigma_w2=0.1)
NOISE = NoisePowers(sigma_z2=1e-7, p0=0.1)  # gamma0 = 1e6


def test_eta_constant():
    assert ETA == pytest.approx(1.0 - 2.0 / math.pi, rel=0.0)
    assert ETA == pytest.approx(0.36338022763241865, rel=1e-15)


def test_mean_channel_magnitude_monte_carlo():
    # E|h| for zero-mean Gaussian h
    for s in (1e-4, 4e-4, 2.5):
        rng = substream(5, 0)
        draws = rng.normal(0.0, math.sqrt(s), 400_000)
        assert mean_channel_magnitude(s) == pytest.approx(np.abs(draws).mean(), rel=5e-3)
    with pytest.raises(ValueError):
        mean_channel_magnitude(0.0)


def test_expected_ac2_matches_monte_carlo():
    rng = substream(5, 1)
    for _ in range(5):
        u = float(rng.uniform(-200.0, -1.0))
        s = float(10.0 ** rng.uniform(-4, -2))
        h = rng.normal(0.0, math.sqrt(s), 400_000)
        sample = np.mean((PLANT.a + u * np.abs(h)) ** 2)
        assert expected_ac2(PLANT, u, s) == pytest.approx(sample, rel=5e-3)


def test_expected_ac2_minimum_value():
    # minimized over u at -bA/s where it equals eta * A^2
    s = 1e-4
    b = mean_channel_magnitude(s)
    u_min = -b * PLANT.a / s
    assert expected_ac2(PLANT, u_min, s) == pytest.approx(ETA * PLANT.a**2, rel=1e-12)
    for du in (-1.0, 1.0, 10.0):
        assert expected_ac2(PLANT, u_min + du, s) > ETA * PLANT.a**2


def expected_ac2_no_csi(plant, gain_product, sigma_h2):
    """E[(A + G h K)^2] with no channel knowledge at all: A^2 + u^2 sigma_h2 > A^2.

    Why the receiver needs the sign flip: without it no gain stabilizes.
    """
    return plant.a**2 + gain_product**2 * sigma_h2


def test_expected_ac2_no_csi_always_explodes():
    # without sign knowledge the mean square loop gain exceeds a^2 >= 1
    for u in (-100.0, -1.0, 0.0, 50.0):
        assert expected_ac2_no_csi(PLANT, u, 1e-4) >= PLANT.a**2
    rng = substream(5, 2)
    h = rng.normal(0.0, 0.01, 400_000)
    sample = np.mean((PLANT.a + -80.0 * h) ** 2)
    assert expected_ac2_no_csi(PLANT, -80.0, 1e-4) == pytest.approx(sample, rel=5e-3)


def test_stabilizable_fast_boundary():
    a_crit = 1.0 / math.sqrt(ETA)
    assert a_crit == pytest.approx(1.6588967, rel=1e-7)
    assert stabilizable_fast(PlantParams(a=a_crit - 1e-6, sigma_w2=0.1))
    assert not stabilizable_fast(PlantParams(a=a_crit + 1e-6, sigma_w2=0.1))
    # the boundary itself is not stabilizable (strict inequality)
    assert not stabilizable_fast(PlantParams(a=a_crit, sigma_w2=0.1))
    assert not stabilizable_fast(PlantParams(a=-(a_crit + 1e-6), sigma_w2=0.1))


def test_fast_snr_floor_values():
    assert fast_snr_floor(PLANT, 1e-4) == pytest.approx(68532.77283166685, rel=1e-10)
    assert fast_snr_floor(PLANT, 4e-4) == pytest.approx(17133.193207916713, rel=1e-10)
    assert math.isinf(fast_snr_floor(PlantParams(a=1.7, sigma_w2=0.1), 1e-4))
    assert fast_snr_floor(PLANT, 1e-4) <= NOISE.gamma0
    assert not fast_snr_floor(PLANT, 1e-4) <= NoisePowers(sigma_z2=1e-7, p0=6e-3).gamma0
    for sigma_h2 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fast_snr_floor(PLANT, sigma_h2)


def test_a_channel_power_that_underflows_the_floor_has_an_inf_floor(recwarn):
    # (1 - eta a^2) * 5e-324 underflows to 0: every entry point reads an inf
    # floor, and none divides by zero or warns
    assert fast_snr_floor(PLANT, 5e-324) == math.inf
    with pytest.raises(Infeasible, match="floor inf"):
        optimize_single_fast(PLANT, NOISE, 5e-324)
    with pytest.raises(Infeasible, match="floors inf"):
        allocate_multi_fast([(1, 5e-324), (2, 4e-4)], PLANT, NOISE)
    assert not recwarn.list


def test_a_channel_power_whose_double_overflows_is_refused_by_name():
    # 2 sigma_h2 in E|h| = sqrt(2 sigma_h2 / pi) overflows from ~9e307
    for call in (
        lambda: mean_channel_magnitude(1e308),
        lambda: fast_snr_floor(PLANT, 1e308),
        lambda: optimize_single_fast(PLANT, NOISE, 1e308),
        lambda: allocate_multi_fast([(1, 1e308), (2, 4e-4)], PLANT, NOISE),
    ):
        with pytest.raises(ValueError, match="channel power is too large"):
            call()
    # the largest power below the bound keeps the formula as it is
    assert mean_channel_magnitude(8.9e307) == math.sqrt(2.0 * 8.9e307 / math.pi)


def test_single_fast_reference_instance():
    design = optimize_single_fast(PLANT, NOISE, 1e-4)
    assert design.gain_product == pytest.approx(-118.4977070499305, rel=1e-12)
    assert design.expected_ac2 == pytest.approx(0.8177459292387028, rel=1e-12)
    assert design.j_ave == pytest.approx(0.5944866210304107, rel=1e-12)
    assert design.gains.k < 0.0 < design.gains.g
    assert design.gains.product == pytest.approx(design.gain_product, rel=1e-12)
    # budget binds: k^2 J = gamma sigma_z2
    snr = design.gains.k**2 * design.j_ave / NOISE.sigma_z2
    assert snr == pytest.approx(NOISE.gamma0, rel=1e-9)


def test_single_fast_cost_identity_over_budgets():
    # J(gamma) = sigma_w2 (1 + s gamma) / ((1 - a^2) + s gamma (1 - eta a^2))
    s = 1e-4
    a2 = PLANT.a**2
    rng = np.random.default_rng(88)
    for _ in range(20):
        gamma = fast_snr_floor(PLANT, s) * 10.0 ** rng.uniform(0.1, 3.0)
        design = optimize_single_fast(PLANT, NOISE, s, gamma=gamma)
        expected = (
            PLANT.sigma_w2
            * (1.0 + s * gamma)
            / ((1.0 - a2) + s * gamma * (1.0 - ETA * a2))
        )
        assert design.j_ave == pytest.approx(expected, rel=1e-10)


def test_single_fast_product_sweep_oracle():
    # 1-D sweep over the product u: closed form is the minimizer
    design = optimize_single_fast(PLANT, NOISE, 1e-4)
    u_star = design.gain_product
    gamma = NOISE.gamma0
    us = np.linspace(u_star * 0.2, u_star * 2.5, 30001)
    e = np.array([expected_ac2(PLANT, float(u), 1e-4) for u in us])
    denom = (1.0 - e) * gamma - us**2
    ok = denom > 0.0
    j = gamma * PLANT.sigma_w2 / denom[ok]
    assert design.j_ave <= j.min() * (1.0 + 1e-12)
    assert j.min() <= design.j_ave * 1.0005


def test_single_fast_boundary_budget_degenerates():
    floor = fast_snr_floor(PLANT, 1e-4)
    design = optimize_single_fast(PLANT, NOISE, 1e-4, gamma=floor)
    assert design.gains is None
    assert math.isinf(design.j_ave)
    with pytest.raises(ValueError, match="floor"):
        optimize_single_fast(PLANT, NOISE, 1e-4, gamma=floor * 0.99)


def test_single_fast_below_its_floor_is_infeasible():
    # the same verdict type as the block-fading design, still a ValueError
    floor = fast_snr_floor(PLANT, 1e-4)
    with pytest.raises(Infeasible, match=r"below the mean-square stabilizability floor 68532\.8"):
        optimize_single_fast(PLANT, NOISE, 1e-4, gamma=floor * 0.99)
    # no budget stabilizes a >= 1/sqrt(1 - 2/pi) under sign-only knowledge
    with pytest.raises(Infeasible, match="floor inf"):
        optimize_single_fast(PlantParams(a=1.7, sigma_w2=0.1), NOISE, 1e-4)


def test_fast_allocation_reference_instance():
    alloc, design = allocate_multi_fast([(1, 1e-4), (2, 4e-4)], PLANT, NOISE)
    assert_allclose(alloc.gamma, (678088.7954714694, 321911.204527818), rtol=1e-9)
    assert sum(alloc.gamma) == pytest.approx(NOISE.gamma0, rel=1e-10)
    assert_allclose(
        design.predicted_costs,
        (0.618898100999353, 0.5835801418263441),
        rtol=1e-9,
    )
    assert sum(design.predicted_costs) == pytest.approx(1.202478242825697, rel=1e-9)
    # better channel (larger sigma_h2) gets strictly less SNR
    assert alloc.gamma[1] < alloc.gamma[0]


def test_fast_allocation_sweep_oracle():
    alloc, design = allocate_multi_fast([(1, 1e-4), (2, 4e-4)], PLANT, NOISE)
    closed = sum(design.predicted_costs)
    floors = [fast_snr_floor(PLANT, 1e-4), fast_snr_floor(PLANT, 4e-4)]
    best = math.inf
    hi = NOISE.gamma0 - floors[1] * (1.0 + 1e-9)
    for g1 in np.linspace(floors[0] * (1 + 1e-9), hi, 4000):
        j1 = optimize_single_fast(PLANT, NOISE, 1e-4, gamma=g1).j_ave
        j2 = optimize_single_fast(PLANT, NOISE, 4e-4, gamma=NOISE.gamma0 - g1).j_ave
        best = min(best, j1 + j2)
    assert closed <= best * (1.0 + 1e-12)
    assert best <= closed * 1.001


def test_fast_allocation_equalizes_marginal_cost():
    rng = np.random.default_rng(17)
    for _ in range(15):
        plant = PlantParams(a=rng.uniform(1.05, 1.6), sigma_w2=10.0 ** rng.uniform(-2, 0))
        m = rng.integers(2, 5)
        ss = 10.0 ** rng.uniform(-5, -3, size=m)
        floors = np.array([fast_snr_floor(plant, s) for s in ss])
        gamma0 = floors.sum() * rng.uniform(3.0, 50.0)
        noise = NoisePowers(sigma_z2=1e-7, p0=gamma0 * 1e-7)
        alloc, _ = allocate_multi_fast(list(enumerate(ss)), plant, noise)
        a2 = plant.a**2

        def dj_dgamma(g, s):
            def f(x):
                return (
                    plant.sigma_w2
                    * (1.0 + s * x)
                    / ((1.0 - a2) + s * x * (1.0 - ETA * a2))
                )

            eps = g * 1e-6
            return (f(g + eps) - f(g - eps)) / (2 * eps)

        grads = [dj_dgamma(g, s) for g, s in zip(alloc.gamma, ss)]
        assert_allclose(grads, grads[0], rtol=1e-3)


def test_fast_allocation_on_the_summed_floors_admits_every_share():
    # at a = 1.439, eta (a a) and (eta a) a are an ulp apart: the allocator and
    # the per-plant check must compute one floor, or a budget exactly on the
    # summed floors refuses a plant its own share
    plant = PlantParams(a=1.439, sigma_w2=0.1)
    channels = [(1, 1e-4), (2, 4e-4)]
    floors = tuple(fast_snr_floor(plant, s) for _, s in channels)
    alloc, design = allocate_multi_fast(channels, plant, NoisePowers(1.0, sum(floors)))
    assert alloc.gamma == floors
    assert all(gains is None for gains in design.gains)


def test_fast_allocation_single_plant_reduces_to_single_design():
    alloc, design = allocate_multi_fast([(3, 1e-4)], PLANT, NOISE)
    single = optimize_single_fast(PLANT, NOISE, 1e-4)
    assert alloc.gamma == (NOISE.gamma0,)
    assert design.gains[0].k == single.gains.k
    assert design.predicted_costs[0] == single.j_ave


def test_fast_allocation_infeasible_raises():
    poor = NoisePowers(sigma_z2=1e-7, p0=8e-3)  # below the 85665.97 summed floors
    with pytest.raises(ValueError):
        allocate_multi_fast([(1, 1e-4), (2, 4e-4)], PLANT, poor)


@pytest.mark.parametrize(
    "design",
    [lambda plant: optimize_single_fast(plant, NOISE, 1e-4),
     lambda plant: allocate_multi_fast([(1, 1e-4), (2, 4e-4)], plant, NOISE)],
    ids=["single", "allocation"],
)
def test_an_unstabilizable_plant_is_infeasible_at_every_entry_point(design):
    # no budget stabilizes a >= 1/sqrt(1 - 2/pi) under sign-only knowledge:
    # a verdict, the same type as any other infeasible budget
    with pytest.raises(Infeasible):
        design(PlantParams(a=1.7, sigma_w2=0.1))


def test_sign_flip_controls_simulated_growth():
    # with the flip the reference design holds E[x^2] bounded; without any
    # channel knowledge the same budget cannot avoid mean-square growth
    design = optimize_single_fast(PLANT, NOISE, 1e-4)
    u = design.gain_product
    rng = substream(21, 0)
    replicas, horizon = 20_000, 60
    h = rng.normal(0.0, math.sqrt(1e-4), (replicas, horizon))
    w = rng.normal(0.0, math.sqrt(PLANT.sigma_w2), (replicas, horizon))
    z = rng.normal(0.0, math.sqrt(NOISE.sigma_z2), (replicas, horizon))

    def mean_square_path(coeffs):
        x = np.ones(replicas)
        out = []
        for t in range(horizon):
            x = coeffs[:, t] * x + design.gains.g * z[:, t] + w[:, t]
            out.append(float(np.mean(x**2)))
        return out

    with_flip = mean_square_path(PLANT.a + u * np.abs(h))
    without = mean_square_path(PLANT.a + u * h)
    assert with_flip[-1] < 10.0 * design.j_ave
    assert without[-1] > 100.0 * with_flip[-1]
    assert without[-1] > without[horizon // 2] > without[5]
