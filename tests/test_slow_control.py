"""Closed-form designs under block fading, checked against brute-force oracles."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wncs.model import GainPair, NoisePowers, PlantParams
from wncs.slow_control import (
    IdenticalActuatorDesign,
    IdenticalControllerDesign,
    Infeasible,
    MultiDesign,
    _over_zero,
    allocate_multi_slow,
    optimize_identical_actuator,
    optimize_identical_controller,
    optimize_single_slow,
    snr_floor,
)

PLANT = PlantParams(a=1.5, sigma_w2=0.1)
NOISE = NoisePowers(sigma_z2=1e-7, p0=0.1)  # gamma0 = 1e6


def grid_min_cost(plant, noise, h, gamma, k_points=400, g_points=400):
    """Brute-force reference: min cost over a (log|k|, g) grid inside the budget.

    For each |k| on a log grid the SNR constraint is a quadratic in g, so g is
    sampled over its exact feasible interval; this keeps the grid honest even
    where that interval is narrow.
    """
    ssr = noise.ssr(plant)
    a = plant.a
    best = math.inf
    k_hi = math.sqrt(gamma / ssr)
    for k in -np.logspace(math.log10(k_hi) - 2.0, math.log10(k_hi), k_points):
        # gamma >= k^2 (g^2 + ssr) / (1 - (a + h k g)^2) rearranged in g
        qa = k * k + gamma * h * h * k * k
        qb = 2.0 * gamma * a * h * k
        qc = k * k * ssr + gamma * (a * a - 1.0)
        disc = qb * qb - 4.0 * qa * qc
        if disc <= 0.0:
            continue
        lo = (-qb - math.sqrt(disc)) / (2.0 * qa)
        hi = (-qb + math.sqrt(disc)) / (2.0 * qa)
        if hi < lo:
            lo, hi = hi, lo
        g = np.linspace(max(lo, 1e-9), hi, g_points)
        a_c = a + g * h * k
        snr = k * k * (g * g + ssr) / (1.0 - a_c * a_c)
        ok = (np.abs(a_c) < 1.0) & (snr <= gamma * (1.0 + 1e-12))
        if ok.any():
            cost = (g[ok] ** 2 * noise.sigma_z2 + plant.sigma_w2) / (1.0 - a_c[ok] ** 2)
            best = min(best, float(cost.min()))
    return best


def test_snr_floor_and_feasibility():
    assert snr_floor(PLANT, 0.01) == pytest.approx(12500.0)
    assert snr_floor(PLANT, 0.01) <= NOISE.gamma0
    # boundary budget is feasible (inclusive)
    boundary = NoisePowers(sigma_z2=1e-7, p0=12500.0 * 1e-7)
    assert snr_floor(PLANT, 0.01) <= boundary.gamma0
    below = NoisePowers(sigma_z2=1e-7, p0=12499.0 * 1e-7)
    assert not snr_floor(PLANT, 0.01) <= below.gamma0
    for h in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            snr_floor(PLANT, h)


def test_single_design_reference_instance():
    design = optimize_single_slow(PLANT, NOISE, 0.01)
    assert design.a_c == pytest.approx(1.5 / 101.0, rel=1e-12)
    assert design.j_ave == pytest.approx(0.10227848101265823, rel=1e-12)
    assert design.gains.k == pytest.approx(-0.9887986510292314, rel=1e-12)
    assert design.gains.g == pytest.approx(150.19726344747818, rel=1e-12)
    # the returned pair realizes a_c and spends the whole budget
    a_c = PLANT.a + design.gains.g * 0.01 * design.gains.k
    assert a_c == pytest.approx(design.a_c, rel=1e-9)
    snr = (
        design.gains.k**2
        * (design.gains.g**2 + NOISE.ssr(PLANT))
        / (1.0 - a_c**2)
    )
    assert snr == pytest.approx(NOISE.gamma0, rel=1e-9)


def test_single_design_never_beaten_by_grid():
    # randomized instances; the closed form must match or beat the grid
    rng = np.random.default_rng(515)
    for _ in range(8):
        a = rng.uniform(1.05, 1.6)
        h = 10.0 ** rng.uniform(-3, -1)
        plant = PlantParams(a=a, sigma_w2=10.0 ** rng.uniform(-2, 0))
        floor = (a * a - 1.0) / h**2
        gamma = floor * 10.0 ** rng.uniform(0.7, 3.0)
        noise = NoisePowers(sigma_z2=1e-7, p0=gamma * 1e-7)
        design = optimize_single_slow(plant, noise, h)
        ref = grid_min_cost(plant, noise, h, gamma)
        assert design.j_ave <= ref * (1.0 + 1e-9)
        assert ref <= design.j_ave * 1.005  # grid dense enough to get close


def test_single_design_cost_decreases_in_budget_and_gain():
    j = [
        optimize_single_slow(PLANT, NOISE, 0.01, gamma=g).j_ave
        for g in (2e4, 1e5, 1e6, 1e7)
    ]
    assert all(lo > hi for lo, hi in zip(j, j[1:]))
    j_h = [optimize_single_slow(PLANT, NOISE, h).j_ave for h in (0.005, 0.01, 0.02)]
    assert all(lo > hi for lo, hi in zip(j_h, j_h[1:]))


def test_single_design_perfect_channel_limit():
    design = optimize_single_slow(PLANT, NOISE, h=10.0)
    assert design.a_c == pytest.approx(0.0, abs=1e-6)
    assert design.j_ave == pytest.approx(PLANT.sigma_w2, rel=1e-4)


def test_single_design_boundary_budget_degenerates():
    floor = snr_floor(PLANT, 0.01)
    design = optimize_single_slow(PLANT, NOISE, 0.01, gamma=floor)
    assert design.gains is None
    assert math.isinf(design.j_ave)
    assert design.gain_product == pytest.approx(-(1.5**2 - 1.0) / (1.5 * 0.01), rel=1e-12)
    assert design.a_c == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_single_design_infeasible_budget_raises():
    with pytest.raises(ValueError, match="floor"):
        optimize_single_slow(PLANT, NOISE, 0.01, gamma=12499.0)


def test_allocation_reference_instance():
    alloc, design = allocate_multi_slow([(1, 0.01), (2, 0.02)], PLANT, NOISE)
    assert_allclose(alloc.gamma, (668750.0, 331250.0), rtol=1e-9)
    assert sum(alloc.gamma) == pytest.approx(NOISE.gamma0, rel=1e-10)
    assert_allclose(
        design.predicted_costs,
        (0.10342857142857144, 0.10171428571428573),
        rtol=1e-9,
    )
    # better channel gets strictly less SNR
    assert alloc.gamma[1] < alloc.gamma[0]
    assert alloc.multiplier is not None and alloc.multiplier > 0.0


def test_allocation_equalizes_marginal_cost():
    # interior optimality: dJ/dgamma equal across plants (seeded instances)
    rng = np.random.default_rng(99)
    for _ in range(20):
        a = rng.uniform(1.05, 1.6)
        plant = PlantParams(a=a, sigma_w2=10.0 ** rng.uniform(-2, 0))
        m = rng.integers(2, 5)
        hs = 10.0 ** rng.uniform(-3, -1, size=m)
        floors = (a * a - 1.0) / hs**2
        gamma0 = floors.sum() * rng.uniform(3.0, 50.0)
        noise = NoisePowers(sigma_z2=1e-7, p0=gamma0 * 1e-7)
        alloc, _ = allocate_multi_slow(list(enumerate(hs)), plant, noise)

        def dj_dgamma(g, h):
            def f(x):
                return plant.sigma_w2 * (1 + h * h * x) / (h * h * x + 1 - a * a)

            eps = g * 1e-6
            return (f(g + eps) - f(g - eps)) / (2 * eps)

        grads = [dj_dgamma(g, h) for g, h in zip(alloc.gamma, hs)]
        assert_allclose(grads, grads[0], rtol=1e-3)


def test_allocation_sweep_oracle_two_plants():
    # 1-D sweep over the split must not beat the closed-form allocation
    alloc, design = allocate_multi_slow([(1, 0.02), (2, 0.01)], PLANT, NOISE)
    closed = sum(design.predicted_costs)
    floors = [snr_floor(PLANT, 0.02), snr_floor(PLANT, 0.01)]
    best = math.inf
    for g1 in np.linspace(floors[0] * (1 + 1e-9), NOISE.gamma0 - floors[1], 4000):
        j1 = optimize_single_slow(PLANT, NOISE, 0.02, gamma=g1).j_ave
        j2 = optimize_single_slow(PLANT, NOISE, 0.01, gamma=NOISE.gamma0 - g1).j_ave
        best = min(best, j1 + j2)
    assert closed <= best * (1.0 + 1e-12)
    assert best <= closed * 1.001


def test_allocation_budget_on_floors_pins_shares():
    hs = [(1, 0.02), (2, 0.01)]
    floors_sum = snr_floor(PLANT, 0.02) + snr_floor(PLANT, 0.01)
    # nudge the budget a hair above the floors so rounding can't tip the
    # feasibility check while the slack still reads as zero
    noise = NoisePowers(sigma_z2=1e-7, p0=floors_sum * 1e-7 * (1.0 + 5e-13))
    alloc, design = allocate_multi_slow(hs, PLANT, noise)
    assert_allclose(alloc.gamma, (3125.0, 12500.0), rtol=1e-12)
    assert alloc.multiplier is None
    assert all(gains is None for gains in design.gains)
    assert all(math.isinf(j) for j in design.predicted_costs)


def test_allocation_on_the_summed_floors_admits_every_share():
    # a Rayleigh magnitude (E[h^2] = 1e-4) whose pow square is an ulp under
    # h * h: the allocator and the per-plant check must compute one floor, or
    # a budget exactly on the summed floors refuses the plant its own share
    h = 0.014339446624214748
    assert h**2 < h * h
    channels = [(1, h), (2, 0.01)]
    floors = tuple(snr_floor(PLANT, v) for _, v in channels)
    noise = NoisePowers(sigma_z2=1e-7, p0=sum(floors) * 1e-7)
    alloc, design = allocate_multi_slow(channels, PLANT, noise)
    assert alloc.gamma == floors
    assert all(gains is None for gains in design.gains)


def test_allocation_single_plant_reduces_to_single_design():
    alloc, design = allocate_multi_slow([(7, 0.01)], PLANT, NOISE)
    single = optimize_single_slow(PLANT, NOISE, 0.01)
    assert alloc.gamma == (NOISE.gamma0,)
    assert alloc.multiplier is None
    assert design.gains[0].k == single.gains.k
    assert design.gains[0].g == single.gains.g
    assert design.predicted_costs[0] == single.j_ave


def test_allocation_infeasible_set_raises():
    poor = NoisePowers(sigma_z2=1e-7, p0=1e-4)  # gamma0 = 1000 < 15625
    with pytest.raises(ValueError):
        allocate_multi_slow([(1, 0.01), (2, 0.02)], PLANT, poor)


def test_identical_actuator_unconstrained_regime():
    # effective budget above sum a^2/h_i^2: dead-beat products, a_c = 0
    design = optimize_identical_actuator([(0, 0.01)], PLANT, NOISE, g_common=1000.0)
    assert design.regime == "unconstrained"
    assert design.multiplier is None
    assert design.k_tilde[0] == pytest.approx(-1.5 / 0.01, rel=1e-12)
    assert design.closed_loop[0] == pytest.approx(0.0, abs=1e-12)
    assert design.k[0] == pytest.approx(design.k_tilde[0] / 1000.0, rel=1e-12)


def test_identical_actuator_tight_budget_approaches_boundary_product():
    # effective budget just above the floor: product near -(a^2-1)/(a h)
    g_tight = math.sqrt(12500.0 * 1e6 / (1e6 - 12500.0)) * (1.0 + 1e-9)
    design = optimize_identical_actuator([(0, 0.01)], PLANT, NOISE, g_common=g_tight)
    assert design.regime == "budget"
    assert design.k_tilde[0] == pytest.approx(-1.25 / (1.5 * 0.01), rel=1e-3)
    with pytest.raises(ValueError, match="floors"):
        optimize_identical_actuator([(0, 0.01)], PLANT, NOISE, g_common=100.0)


def test_identical_actuator_budget_regime_vs_split_sweep():
    design = optimize_identical_actuator(
        [(1, 0.02), (2, 0.01)], PLANT, NOISE, g_common=150.0
    )
    assert design.regime == "budget"
    # worse channel gets the larger controller magnitude
    assert abs(design.k_tilde[1]) > abs(design.k_tilde[0])
    # every product sits inside the monotone region [-a/h, -(a^2-1)/(a h)]
    for kt, h in zip(design.k_tilde, (0.02, 0.01)):
        assert -1.5 / h <= kt <= -1.25 / (1.5 * h)
    # budget binds
    snr = sum(
        kt**2 / (1.0 - ac**2) for kt, ac in zip(design.k_tilde, design.closed_loop)
    )
    assert snr == pytest.approx(design.gamma_tilde, rel=1e-9)
    # oracle: sweep the effective-SNR split, per-plant product from the
    # stationary branch of the constraint quadratic
    ssr = NOISE.ssr(PLANT)
    gt = design.gamma_tilde
    hs = (0.02, 0.01)

    def kt_meeting(gamma, h):
        qa = 1.0 + gamma * h * h
        qb = 2.0 * gamma * 1.5 * h
        qc = gamma * 1.25
        return (-qb - math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)

    def cost(kt, h):
        a_c = 1.5 + h * kt
        return NOISE.sigma_z2 * (150.0**2 + ssr) / (1.0 - a_c * a_c)

    floors = [snr_floor(PLANT, h) for h in hs]
    best = math.inf
    for g1 in np.linspace(floors[0] * (1 + 1e-9), gt - floors[1], 4000):
        best = min(best, cost(kt_meeting(g1, hs[0]), hs[0]) + cost(kt_meeting(gt - g1, hs[1]), hs[1]))
    closed = sum(design.predicted_costs)
    assert closed <= best * (1.0 + 1e-12)
    assert best <= closed * 1.001


def test_a_zero_divisor_gives_numpys_quotient():
    # the shared-actuator design divides on plain floats: where a divisor is
    # a zero, it takes numpy's signed inf or NaN instead of ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        for x in (1.5, -1.5, 0.0, -0.0, math.inf, -math.inf, math.nan):
            for zero in (0.0, -0.0):
                expected, got = float(np.float64(x) / zero), _over_zero(x, zero)
                assert got == expected or math.isnan(got) and math.isnan(expected), (x, zero)


def test_identical_actuator_validation():
    with pytest.raises(ValueError):
        optimize_identical_actuator([(0, 0.01)], PLANT, NOISE, g_common=0.0)
    with pytest.raises(ValueError):
        optimize_identical_actuator([], PLANT, NOISE, g_common=100.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.01, 1e200, 1e150])
@pytest.mark.parametrize(
    "design", [optimize_identical_actuator, optimize_identical_controller], ids=lambda f: f.__name__
)
def test_shared_designs_refuse_bad_channel_magnitudes(design, bad):
    # as allocate_multi_slow does: refused before any arithmetic, not a solver
    # failure or a NaN cost reported as merely infeasible (1e150: h^2 gamma0
    # and h^2 k^2 SSR are finite, their squares are not)
    factor = 1000.0 if design is optimize_identical_actuator else -1.0
    with pytest.raises(ValueError, match="channel magnitude") as refused:
        design([(1, bad), (2, 0.02)], PLANT, NOISE, factor)
    assert not isinstance(refused.value, Infeasible)


def test_identical_controller_zero_discriminant_point():
    # k chosen so 1 - a^2 + h^2 k^2 ssr = 0; the optimal g collapses to sqrt(ssr)
    k_star = -math.sqrt(1.25 / (0.01**2 * 1e6))
    # within budget, or it would raise Infeasible
    design = optimize_identical_controller([(0, 0.01)], PLANT, NOISE, k_common=k_star)
    assert design.g[0] == pytest.approx(1000.0, rel=1e-9)
    assert design.total_cost == pytest.approx(design.predicted_costs[0], rel=1e-12)
    # numeric 1-D check: no g in a wide bracket does better
    gs = np.linspace(500.0, 1500.0, 20001)
    a_c = 1.5 + 0.01 * k_star * gs
    ok = np.abs(a_c) < 1.0
    j = NOISE.sigma_z2 * (gs[ok] ** 2 + 1e6) / (1.0 - a_c[ok] ** 2)
    assert j.min() >= design.predicted_costs[0] * (1.0 - 1e-9)


def test_identical_controller_larger_gain_for_weaker_channel():
    k = -0.1118033988749895
    g1 = optimize_identical_controller([(0, 0.01)], PLANT, NOISE, k_common=k).g[0]
    g2 = optimize_identical_controller([(0, 0.02)], PLANT, NOISE, k_common=k).g[0]
    assert g2 < g1


def test_identical_controller_budget_check_and_degenerate_k():
    k = -0.5
    tight = NoisePowers(sigma_z2=1e-7, p0=0.02)  # cost cap p0 / k^2 = 0.08
    # the single plant's optimum costs 0.109 > 0.08: refused, naming both
    with pytest.raises(Infeasible, match=r"total cost 0\.1\d* .*exceeds the budget's cap 0\.08"):
        optimize_identical_controller([(0, 0.01)], PLANT, tight, k_common=k)
    roomy = NoisePowers(sigma_z2=1e-7, p0=0.1)  # cap 0.4
    design = optimize_identical_controller([(0, 0.01)], PLANT, roomy, k_common=k)
    assert design.total_cost <= 0.4
    with pytest.raises(ValueError):
        optimize_identical_controller([(0, 0.01)], PLANT, NOISE, k_common=1e-13)


def test_identical_controller_matches_numeric_minimum():
    # seeded instances: the closed form is the 1-D minimizer of the plant cost;
    # a 1 W budget caps no instance's cost (the largest needs 0.34 W)
    roomy = NoisePowers(sigma_z2=NOISE.sigma_z2, p0=1.0)
    rng = np.random.default_rng(404)
    for _ in range(20):
        plant = PlantParams(a=rng.uniform(1.05, 1.6), sigma_w2=10.0 ** rng.uniform(-2, 0))
        h = 10.0 ** rng.uniform(-3, -1)
        k = -(10.0 ** rng.uniform(-2, 0.5))
        design = optimize_identical_controller([(0, h)], plant, roomy, k_common=k)
        g_star = design.g[0]
        gs = np.linspace(g_star * 0.5, g_star * 1.5, 4001)
        a_c = plant.a + h * k * gs
        ok = np.abs(a_c) < 1.0
        j = NOISE.sigma_z2 * (gs[ok] ** 2 + NOISE.ssr(plant)) / (1.0 - a_c[ok] ** 2)
        assert design.predicted_costs[0] <= j.min() * (1.0 + 1e-9)


def test_total_costs_add_left_to_right_on_every_python():
    # from Python 3.12 builtin sum() compensates and would give 1.0 here; the
    # totals add left to right, as 3.10 and 3.11 do
    costs = (1e16, 1.0, -1e16)
    ids = (1, 2, 3)
    assert MultiDesign(ids, (None,) * 3, costs).total_cost == 0.0
    assert IdenticalActuatorDesign(ids, (-1.0,) * 3, (-1.0,) * 3, 1.0, "budget", None,
                                   (0.5,) * 3, costs).total_cost == 0.0
    assert IdenticalControllerDesign(ids, (1.0,) * 3, (0.5,) * 3, costs).total_cost == 0.0
