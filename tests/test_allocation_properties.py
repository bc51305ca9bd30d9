"""Property checks of the SNR allocators and the shared-actuator design.

Each instance is a plant, 2-16 distinct channels and a budget above the
summed stabilizability floors.  Block-fading magnitudes h lie in [1e-3, 0.1]
and per-symbol channel powers sigma_h2 in [1e-6, 1e-2], both on a log
lattice so no two plants share a channel.
"""
import math
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wncs.fast_control import ETA, allocate_multi_fast, fast_snr_floor, optimize_single_fast
from wncs.model import NoisePowers, PlantParams
from wncs.slow_control import (
    allocate_multi_slow,
    optimize_identical_actuator,
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
        + abs(plant.a) / (1.0 - ETA * plant.a**2) * math.sqrt(2.0 / (math.pi * s * lam)),
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


@PROPERTY_SETTINGS
@given(instances("slow"))
def test_slow_allocation_properties(instance):
    check_allocation("slow", instance)


@PROPERTY_SETTINGS
@given(instances("fast"))
def test_fast_allocation_properties(instance):
    check_allocation("fast", instance)


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
