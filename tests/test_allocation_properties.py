"""Property checks of the SNR allocators and the shared-actuator design.

Each instance is a plant, 2-16 distinct channels and a budget above the
summed stabilizability floors.  Block-fading magnitudes h lie in [1e-3, 0.1]
and per-symbol channel powers sigma_h2 in [1e-6, 1e-2], both on a log
lattice so no two plants share a channel.
"""
import dataclasses
import hashlib
import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wncs import fast_control, slow_control
from wncs.fast_control import ETA, allocate_multi_fast, fast_snr_floor, optimize_single_fast
from wncs.model import NoisePowers, PlantParams
from wncs.slow_control import (
    Infeasible,
    allocate_multi_slow,
    optimize_identical_actuator,
    optimize_identical_controller,
    optimize_single_slow,
    snr_floor,
)

SIGMA_Z2 = 1e-7
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class Regime(NamedTuple):
    exponents: tuple[int, int]  # channel value = 10^(e/100), e in this range
    floor: Callable
    single: Callable
    share_at: Callable  # gamma_i(lam) as the allocator's docstring states it
    allocate: Callable


REGIMES = {
    "slow": Regime(
        (-300, -100),
        snr_floor,
        optimize_single_slow,
        lambda plant, h, lam: snr_floor(plant, h)
        + abs(plant.a) / h * math.sqrt(plant.sigma_w2 / lam),
        allocate_multi_slow,
    ),
    "fast": Regime(
        (-600, -200),
        fast_snr_floor,
        optimize_single_fast,
        lambda plant, s, lam: fast_snr_floor(plant, s)
        + abs(plant.a) / (1.0 - ETA * plant.a**2)
        * math.sqrt(2.0 * plant.sigma_w2 / (math.pi * s * lam)),
        allocate_multi_fast,
    ),
}


@st.composite
def instances(draw, regime):
    lo, hi = REGIMES[regime].exponents
    sign = draw(st.sampled_from([1.0, -1.0]))
    plant = PlantParams(
        a=sign * draw(st.floats(1.01, 1.6)), sigma_w2=10.0 ** draw(st.floats(-3.0, 0.0))
    )
    exponents = draw(st.lists(st.integers(lo, hi), min_size=2, max_size=16, unique=True))
    channels = [(pid, 10.0 ** (e / 100.0)) for pid, e in enumerate(exponents, start=1)]
    floors = np.array([REGIMES[regime].floor(plant, c) for _, c in channels])
    gamma0 = floors.sum() * (1.0 + 10.0 ** draw(st.floats(-3.0, 3.0)))
    noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=gamma0 * SIGMA_Z2)
    # a random feasible split: each floor plus a random share of the slack
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(channels),
                                     max_size=len(channels))))
    split = floors + (noise.gamma0 - floors.sum()) * weights / weights.sum()
    return plant, channels, floors, noise, split


def check_allocation(regime, instance):
    rg = REGIMES[regime]
    plant, channels, floors, noise, split = instance
    alloc, design = rg.allocate(channels, plant, noise)
    gamma = np.array(alloc.gamma)

    assert np.all(gamma >= floors)
    assert abs(math.fsum(gamma) / noise.gamma0 - 1.0) <= 1e-14

    # channel inversion: a stronger channel gets a strictly smaller share
    values = np.array([c for _, c in channels])
    stronger = values[:, None] > values[None, :]
    assert np.all((gamma[:, None] < gamma[None, :])[stronger])

    # no random feasible split beats the closed-form total cost
    random_total = sum(rg.single(plant, noise, c, gamma=g).j_ave for (_, c), g in zip(channels, split))
    assert design.total_cost <= random_total * (1.0 + 1e-9)

    # the reported multiplier reproduces every share through gamma_i(lam)
    lam = alloc.multiplier
    for (_, c), g in zip(channels, gamma):
        assert abs(rg.share_at(plant, c, lam) - g) <= 1e-12 * g

    # each plant's design is, bit for bit, the single-plant design at its share
    for (_, c), share, gains, cost in zip(channels, alloc.gamma, design.gains,
                                          design.predicted_costs):
        single = rg.single(plant, noise, c, gamma=share)
        assert (gains.k, gains.g, cost) == (single.gains.k, single.gains.g, single.j_ave)


@PROPERTY_SETTINGS
@given(instances("slow"))
def test_slow_allocation_properties(instance):
    check_allocation("slow", instance)


@PROPERTY_SETTINGS
@given(instances("fast"))
def test_fast_allocation_properties(instance):
    check_allocation("fast", instance)


@pytest.mark.parametrize("regime, channels", [
    ("slow", [(1, 0.01), (2, 0.02), (3, 0.05)]),
    ("fast", [(1, 1e-4), (2, 4e-4), (3, 2.5e-3)]),
])
@pytest.mark.parametrize("a", [1.2, -1.2])
@pytest.mark.parametrize("sigma_w2", [0.1, 4.0])
def test_multiplier_is_the_marginal_cost_of_the_budget(regime, channels, a, sigma_w2):
    # the Lagrange multiplier of the budget is -dJ_total/dgamma0 (Boyd &
    # Vandenberghe, Convex Optimization, 5.6): a central difference of the
    # allocated total cost over gamma0 reads it
    rg = REGIMES[regime]
    plant = PlantParams(a=a, sigma_w2=sigma_w2)
    gamma0 = 3.0 * sum(rg.floor(plant, c) for _, c in channels)
    step = 1e-4 * gamma0

    def total_cost(budget):
        return rg.allocate(channels, plant, NoisePowers(SIGMA_Z2, budget * SIGMA_Z2))[1].total_cost

    alloc, _ = rg.allocate(channels, plant, NoisePowers(SIGMA_Z2, gamma0 * SIGMA_Z2))
    slope = (total_cost(gamma0 + step) - total_cost(gamma0 - step)) / (2.0 * step)
    assert alloc.multiplier == pytest.approx(-slope, rel=1e-5)


def bisect_decreasing(residual, start=1.0, rel_tol=1e-12, max_expand=1100, max_iter=400):
    """Reference root of a decreasing residual on (0, inf).

    A copy of the geometric-bracket bisection the shared-actuator design ran
    before its bracketed solver, kept as the oracle for that solver.
    """
    lo = hi = float(start)
    r_lo = residual(lo)
    if r_lo >= 0.0:
        for _ in range(max_expand):
            hi *= 2.0
            if residual(hi) < 0.0:
                break
        else:
            raise RuntimeError("no sign change while expanding up")
    else:
        for _ in range(max_expand):
            lo /= 2.0
            r_lo = residual(lo)
            if r_lo >= 0.0:
                break
        else:
            raise RuntimeError("no sign change while expanding down")
    best_x, best_r = lo, abs(r_lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        r = residual(mid)
        if abs(r) < best_r:
            best_x, best_r = mid, abs(r)
        if abs(r) <= rel_tol:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    return best_x


def stationary_products(a, hs, lam):
    """Budget-tight k~_i(lam), the stabilizing root of
    a h lam k~^2 - ((1 - a^2) lam + h^2) k~ - a h = 0, in conjugate form."""
    d = (1.0 - a * a) * lam + hs**2
    c = 4.0 * a * a * hs**2 * lam
    t = np.abs(d) + np.sqrt(d * d + c)
    return np.where(d >= 0.0, -c / (t * 2.0 * a * hs * lam), -t / (2.0 * a * hs * lam))


@st.composite
def shared_instances(draw):
    sign = draw(st.sampled_from([1.0, -1.0]))
    plant = PlantParams(
        a=sign * draw(st.floats(1.01, 1.6)), sigma_w2=10.0 ** draw(st.floats(-3.0, 0.0))
    )
    exponents = draw(st.lists(st.integers(*REGIMES["slow"].exponents), min_size=2,
                              max_size=16, unique=True))
    hs = np.array([10.0 ** (e / 100.0) for e in exponents])
    floors, unconstrained = (plant.a**2 - 1.0) / hs**2, plant.a**2 / hs**2
    # effective budget: the summed floors plus a log-uniform fraction of the way
    # to the unconstrained SNR, past it about one time in eight
    fraction = 10.0 ** draw(st.floats(-4.0, 0.5))
    gamma_tilde = floors.sum() + fraction * (unconstrained.sum() - floors.sum())
    g_common = 10.0 ** draw(st.floats(0.0, 4.0))
    ssr = plant.sigma_w2 / SIGMA_Z2
    noise = NoisePowers(SIGMA_Z2, gamma_tilde * (g_common**2 + ssr) / g_common**2 * SIGMA_Z2)
    return plant, list(enumerate(hs.tolist(), start=1)), noise, g_common


@PROPERTY_SETTINGS
@given(shared_instances())
def test_shared_actuator_properties(instance):
    plant, channels, noise, g_common = instance
    design = optimize_identical_actuator(channels, plant, noise, g_common)
    a, hs, gamma_tilde = plant.a, np.array([h for _, h in channels]), design.gamma_tilde
    k_tilde = np.array(design.k_tilde)
    a_c = a + hs * k_tilde
    assert np.all(np.abs(a_c) < 1.0)
    spent = (k_tilde**2 / (1.0 - a_c**2)).sum()
    if design.regime == "unconstrained":
        assert spent <= gamma_tilde * (1.0 + 1e-12)
        return

    assert abs(spent - gamma_tilde) / gamma_tilde <= 1e-12

    def residual(lam):
        k = stationary_products(a, hs, lam)
        return ((k**2 / (1.0 - (a + hs * k) ** 2)).sum() - gamma_tilde) / gamma_tilde

    # normwise: a plant with a small part of the budget is pinned by a 1e-12
    # budget residual only to about 1e-8 of its own product, in both solvers
    oracle = stationary_products(a, hs, bisect_decreasing(residual))
    assert np.max(np.abs(k_tilde - oracle)) <= 1e-9 * np.max(np.abs(oracle))


def array_root(d, c, denom_scale):
    """The conjugate-form root (d - sqrt(d^2 + c)) / denom_scale over arrays, elementwise."""
    t = np.abs(d) + np.sqrt(d * d + c)
    return np.where(d >= 0.0, -c / (t * denom_scale), -t / denom_scale)


@PROPERTY_SETTINGS
@given(shared_instances())
def test_budget_products_are_the_array_root_at_the_multiplier_bit_for_bit(instance):
    # the solver steps each plant on plain floats: its products are the array
    # root at its multiplier, formed from the solver's own factors, to the bit
    plant, channels, noise, g_common = instance
    design = optimize_identical_actuator(channels, plant, noise, g_common)
    assume(design.multiplier is not None)
    a, hs, lam = plant.a, np.array([h for _, h in channels]), design.multiplier
    h2 = hs**2
    expected = array_root((1.0 - a * a) * lam + h2, 4.0 * a * a * h2 * lam, 2.0 * a * hs * lam)
    assert np.array_equal(design.k_tilde, expected)


@PROPERTY_SETTINGS
@given(shared_instances(), st.floats(-3.0, 1.0))
def test_shared_controller_design_is_the_array_design_bit_for_bit(instance, exponent):
    # the design steps each plant on plain floats: its factors, closed loops
    # and costs are those of the same formulas over arrays, to the bit
    plant, channels, _, _ = instance
    k = -(10.0**exponent)
    noise = NoisePowers(SIGMA_Z2, 1e3)  # a cap on the total cost that rarely binds
    try:
        design = optimize_identical_controller(channels, plant, noise, k)
    except Infeasible:
        assume(False)
    a, hs, ssr = plant.a, np.array([h for _, h in channels]), plant.sigma_w2 / SIGMA_Z2
    g = array_root(1.0 - a * a + hs * hs * k * k * ssr, 4.0 * a * a * hs * hs * k * k * ssr,
                   2.0 * a * hs * k)
    a_c = a + hs * k * g
    costs = noise.sigma_z2 * (g**2 + ssr) / (1.0 - a_c**2)
    assert np.array_equal(design.g, g)
    assert np.array_equal(design.closed_loop, a_c)
    assert np.array_equal(design.predicted_costs, costs)


@pytest.mark.parametrize("regime, channels", [
    ("slow", [(1, 2.0**-4), (2, 2.0**-6), (3, 2.0**-7)]),
    ("fast", [(1, 2.0**-10), (2, 2.0**-12), (3, 2.0**-14)]),
])
def test_budget_on_the_summed_floors_matches_the_single_designs(regime, channels):
    # with a = 1.25 the single designs' floors (a**2, eta a**2) equal the
    # allocators' (a * a, eta * a * a), and a power-of-two noise power keeps
    # gamma0 their sum in the allocators' order: a budget on the summed floors
    rg = REGIMES[regime]
    plant = PlantParams(a=1.25, sigma_w2=0.25)
    gamma0 = sum(rg.floor(plant, c) for _, c in channels)
    noise = NoisePowers(sigma_z2=0.125, p0=gamma0 * 0.125)
    assert noise.gamma0 == gamma0
    alloc, design = rg.allocate(channels, plant, noise)
    assert alloc.multiplier is None
    for (_, c), share, gains, cost in zip(channels, alloc.gamma, design.gains,
                                          design.predicted_costs):
        assert share == rg.floor(plant, c)
        single = rg.single(plant, noise, c, gamma=share)
        assert gains is None and single.gains is None
        assert cost == single.j_ave == math.inf


def numbers_in(value):
    """Every number in a design result but its plant ids, walking dataclasses and tuples."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.name != "plant_ids":
                yield from numbers_in(getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from numbers_in(item)
    elif isinstance(value, (int, float, np.number)) and not isinstance(value, bool):
        yield value


def test_every_design_holds_plain_floats():
    plant = PlantParams(a=1.2, sigma_w2=0.1)
    noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=1e-2)
    hs = np.array([0.01, 0.02, 0.05])  # numpy scalars in, plain floats out
    powers = hs**2
    results = [
        optimize_single_slow(plant, noise, hs[0]),
        optimize_single_slow(plant, noise, hs[0], gamma=snr_floor(plant, hs[0])),
        optimize_single_fast(plant, noise, powers[0]),
        optimize_single_fast(plant, noise, powers[0], gamma=fast_snr_floor(plant, powers[0])),
        allocate_multi_slow(list(enumerate(hs, start=1)), plant, noise),
        allocate_multi_fast(list(enumerate(powers, start=1)), plant, noise),
        optimize_identical_actuator(list(enumerate(hs, start=1)), plant, noise, 400.0),
        optimize_identical_actuator(list(enumerate(hs, start=1)), plant, noise, 1e6),
        optimize_identical_controller(list(enumerate(hs, start=1)), plant,
                                      NoisePowers(sigma_z2=SIGMA_Z2, p0=1.0), -1.0),
    ]
    assert {r.regime for r in results[-3:-1]} == {"budget", "unconstrained"}
    for result in results:
        types = {type(n) for n in numbers_in(result)}
        assert types == {float}, (types, result)


def test_every_design_checks_each_channel_once(monkeypatch):
    checks = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def check(value, *args):
            checks[value] += 1
            return original(value, *args)

        monkeypatch.setattr(module, name, check)

    counted(slow_control, "require_magnitude")
    counted(fast_control, "require_channel_power")
    plant = PlantParams(a=1.2, sigma_w2=0.1)
    noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=1e-2)
    hs, powers = [0.01, 0.02, 0.05], [1e-4, 4e-4, 2.5e-3]
    designs = {
        "allocate_multi_slow": lambda: allocate_multi_slow(list(enumerate(hs, 1)), plant, noise),
        "allocate_multi_fast": lambda: allocate_multi_fast(list(enumerate(powers, 1)), plant,
                                                           noise),
        "optimize_single_slow": lambda: optimize_single_slow(plant, noise, hs[0]),
        "optimize_single_fast": lambda: optimize_single_fast(plant, noise, powers[0]),
    }
    for name, design in designs.items():
        checks.clear()
        design()
        channels = powers if "fast" in name else hs
        assert checks == Counter(channels[: 1 if "single" in name else None]), name


def golden_designs():
    """A dozen seeded 16-loop designs: slow, fast and shared in both regimes."""
    plant = PlantParams(a=1.3, sigma_w2=0.1)
    ssr, g_common = plant.sigma_w2 / SIGMA_Z2, 1000.0
    shrink = g_common**2 / (g_common**2 + ssr)
    ids = range(1, 17)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        hs = rng.rayleigh(scale=math.sqrt(0.5e-4), size=16)
        powers = rng.exponential(1e-4, size=16)
        slow_floors = [snr_floor(plant, h) for h in hs]
        fast_floors = [fast_snr_floor(plant, v) for v in powers]
        uncapped = math.fsum(plant.a**2 / hs**2)
        yield allocate_multi_slow(list(zip(ids, hs.tolist())), plant,
                                  NoisePowers(SIGMA_Z2, 3.0 * math.fsum(slow_floors) * SIGMA_Z2))
        yield allocate_multi_fast(list(zip(ids, powers.tolist())), plant,
                                  NoisePowers(SIGMA_Z2, 3.0 * math.fsum(fast_floors) * SIGMA_Z2))
        for gamma_tilde in (math.fsum(slow_floors) + 0.3 * (uncapped - math.fsum(slow_floors)),
                            1.5 * uncapped):
            noise = NoisePowers(SIGMA_Z2, gamma_tilde / shrink * SIGMA_Z2)
            yield optimize_identical_actuator(list(zip(ids, hs.tolist())), plant, noise, g_common)


#: SHA-256 of the float.hex of every number in ``golden_designs``: any bit of
#: any share, gain, product, closed loop, multiplier or cost moves it
GOLDEN_SHA256 = "64e1fdad8533b0e5cbd58b0b72677063796a2c39b978488d8cc721e4e9af96ec"


def test_golden_designs_are_bit_for_bit_unchanged():
    designs = list(golden_designs())
    assert len(designs) == 12
    assert [d.regime for d in designs[2::4] + designs[3::4]] == ["budget"] * 3 + ["unconstrained"] * 3
    text = "|".join(float(n).hex() for d in designs for n in numbers_in(d))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
