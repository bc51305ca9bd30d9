"""Optimal gain design and SNR allocation for block-constant (slow) fading.

With a fixed channel magnitude h the loop x(t+1) = (A + G h K) x(t) + G z + w
has steady-state cost J = (G^2 sigma_z2 + sigma_w2)/(1 - A_c^2) and average
transmit SNR

    SNR = K^2 (G^2 + SSR) / (1 - A_c^2),      A_c = A + G h K,

where SSR = sigma_w2/sigma_z2.  Under the budget SNR <= gamma0 the best
stabilizing design exists iff (A^2 - 1)/h^2 <= gamma0, drives the budget with
equality, and places the closed loop at

    A_c* = A / (1 + h^2 gamma0),

whose cost is J* = sigma_w2 (1 + h^2 gamma0) / (h^2 gamma0 + 1 - A^2), i.e.
sigma_w2 / (1 - A A_c*).  Several plants sharing the budget split gamma0 by a
water-filling-like rule that is channel-inverting: the stronger channel
receives the smaller SNR share.

Two constrained variants cover hardware that shares one gain across plants:
a common actuator factor G (optimize over per-plant products k~ = K G) and a
common controller factor K (optimize per-plant G; the budget then caps the
total cost itself).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import GainPair, NoisePowers, PlantParams, require_magnitude, require_positive
from .rootfind import bisect_decreasing

#: relative slack below which a budget is treated as sitting exactly on a floor
_BOUNDARY_RTOL = 1e-12


def snr_floor(plant: PlantParams, h: float) -> float:
    """Minimum SNR that admits any stabilizing design: (a^2 - 1)/h^2."""
    require_magnitude(h, "channel magnitude")
    return (plant.a**2 - 1.0) / h**2


def feasible_single(plant: PlantParams, noise: NoisePowers, h: float) -> bool:
    """Whether the budget clears the stabilizability floor (boundary included)."""
    return snr_floor(plant, h) <= noise.gamma0


@dataclass(frozen=True)
class SlowSingleDesign:
    """Optimal single-plant design for one block gain.

    On the feasibility boundary the optimum is a limit (K -> 0, G -> inf with
    the product finite): ``gains`` is None, ``degenerate`` is True and only
    ``gain_product``, ``a_c`` and ``j_ave`` remain meaningful.
    """

    gains: Optional[GainPair]
    a_c: float
    j_ave: float
    gain_product: float
    snr: float
    degenerate: bool = False


def optimize_single_slow(
    plant: PlantParams,
    noise: NoisePowers,
    h: float,
    gamma: Optional[float] = None,
) -> SlowSingleDesign:
    """Cost-optimal (K, G) for one plant under an SNR budget.

    ``gamma`` overrides the budget (used by the multi-plant allocator to
    design each plant at its allocated share); default is the full gamma0.
    The returned design meets its SNR budget with equality.
    """
    g0 = noise.gamma0 if gamma is None else float(gamma)
    floor = snr_floor(plant, h)
    if g0 < floor:
        raise ValueError(
            f"infeasible: budget gamma={g0:.6g} is below the stabilizability "
            f"floor (a^2-1)/h^2 = {floor:.6g}"
        )
    a = plant.a
    h2g = h * h * g0
    a_c = a / (1.0 + h2g)
    # at the boundary h^2 gamma = a^2 - 1 the optimal K collapses to 0 while
    # the product G K stays finite and the cost diverges (G -> inf)
    margin = h2g + 1.0 - a * a
    if margin <= _BOUNDARY_RTOL * (h2g + 1.0):
        return SlowSingleDesign(
            gains=None,
            a_c=a_c,
            j_ave=float("inf"),
            gain_product=-(a * a - 1.0) / (a * h),
            snr=g0,
            degenerate=True,
        )
    j_ave = plant.sigma_w2 * (1.0 + h2g) / margin
    ssr = noise.ssr(plant)
    k = -np.sqrt(g0 * margin / (ssr * (h2g + 1.0)))
    g = a * h * np.sqrt(g0 * ssr / ((h2g + 1.0) * margin))
    gains = GainPair(k=float(k), g=float(g))
    return SlowSingleDesign(
        gains=gains,
        a_c=a_c,
        j_ave=j_ave,
        gain_product=gains.product,
        snr=g0,
        degenerate=False,
    )


def select_plants(
    ids: Sequence[int], floors: np.ndarray, budgets: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Largest supportable plant set per budget: cheapest floors first.

    ``floors[..., j]`` is the stabilizability floor (slow or fast) of plant
    ``ids[j]``.  Plants are ranked by floor, ties by id, and each budget keeps
    the longest ranked prefix whose summed floors are <= the budget.  Returns
    the ranking, (..., M) column indices, and the admitted counts, (..., B).
    """
    floors = np.asarray(floors, dtype=float)
    order = np.lexsort((np.broadcast_to(ids, floors.shape), floors))
    cumulative = np.cumsum(np.take_along_axis(floors, order, axis=-1), axis=-1)
    counts = np.stack([(cumulative <= b).sum(axis=-1) for b in budgets], axis=-1)
    return order, counts


@dataclass(frozen=True)
class SnrAllocation:
    """Per-plant SNR shares plus the Lagrange multiplier that prices the budget.

    ``multiplier`` is None when no interior split was needed (single plant, or
    a budget that sits exactly on the summed floors).
    """

    plant_ids: tuple[int, ...]
    gamma: tuple[float, ...]
    multiplier: Optional[float]


@dataclass(frozen=True)
class SlowDesign:
    """Jointly optimal per-plant designs under one shared SNR budget."""

    plant_ids: tuple[int, ...]
    gains: tuple[Optional[GainPair], ...]
    closed_loop: tuple[float, ...]
    predicted_costs: tuple[float, ...]
    degenerate: tuple[bool, ...]

    @property
    def total_cost(self) -> float:
        return float(sum(self.predicted_costs))


def _split_slack(
    floors: np.ndarray, weights: np.ndarray, gamma0: float
) -> tuple[np.ndarray, Optional[float]]:
    """Each plant's floor plus its share of the slack gamma0 - sum(floors).

    The slack splits in proportion to ``weights``; returns the shares and the
    slack per unit weight s.  s is None when nothing is split: one plant takes
    the whole budget, and a budget on the summed floors pins every share.
    """
    slack = gamma0 - floors.sum()
    if slack < 0.0:
        raise ValueError(
            f"infeasible: summed stabilizability floors {floors.sum():.6g} "
            f"exceed the budget gamma0 = {gamma0:.6g}"
        )
    if len(floors) == 1:
        return np.array([gamma0]), None
    if slack <= _BOUNDARY_RTOL * gamma0:
        return floors.copy(), None
    s = float(slack / weights.sum())
    return floors + s * weights, s


def allocate_multi_slow(
    channel_gains: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
) -> tuple[SnrAllocation, SlowDesign]:
    """Split gamma0 across plants and design each at its share.

    Equal marginal cost across plants gives the interior share

        gamma_i(lam) = (a^2 - 1)/h_i^2 + (|a|/h_i) sqrt(sigma_w2/lam),

    and sum gamma_i = gamma0 has the closed-form root lam = sigma_w2 (a/s)^2,
    s = (gamma0 - sum floors) / sum 1/h_i: the slack above the per-plant
    floors (a^2-1)/h_i^2 splits in proportion to 1/h_i.  The split is
    channel-inverting: larger h_i, smaller gamma_i.
    """
    if not channel_gains:
        raise ValueError("allocate_multi_slow needs at least one plant")
    ids = tuple(pid for pid, _ in channel_gains)
    hs = np.array([require_magnitude(h, "channel magnitude") for _, h in channel_gains])
    floors = (plant.a * plant.a - 1.0) / hs**2
    gamma, s = _split_slack(floors, 1.0 / hs, noise.gamma0)
    multiplier = None if s is None else plant.sigma_w2 * (plant.a / s) ** 2

    designs = [
        optimize_single_slow(plant, noise, h, gamma=gam)
        for h, gam in zip(hs, gamma)
    ]
    allocation = SnrAllocation(plant_ids=ids, gamma=tuple(map(float, gamma)), multiplier=multiplier)
    design = SlowDesign(
        plant_ids=ids,
        gains=tuple(d.gains for d in designs),
        closed_loop=tuple(d.a_c for d in designs),
        predicted_costs=tuple(d.j_ave for d in designs),
        degenerate=tuple(d.degenerate for d in designs),
    )
    return allocation, design


# ---------------------------------------------------------------------------
# shared-gain variants
# ---------------------------------------------------------------------------


def _stable_quadratic_root(d: np.ndarray, c: np.ndarray, denom_scale: np.ndarray) -> np.ndarray:
    """Numerically stable (d - sqrt(d^2 + c)) / denom_scale for c > 0, elementwise.

    The naive form cancels catastrophically when d >> c; the conjugate form
    -c / (d + sqrt(d^2 + c)) is exact in that regime.
    """
    t = np.abs(d) + np.sqrt(d * d + c)
    return np.where(d >= 0.0, -c / (t * denom_scale), -t / denom_scale)


@dataclass(frozen=True)
class IdenticalActuatorDesign:
    """Per-plant effective products k~_i = K_i G under one shared actuator factor."""

    plant_ids: tuple[int, ...]
    k_tilde: tuple[float, ...]
    k: tuple[float, ...]
    g_common: float
    gamma_tilde: float
    regime: str  # "unconstrained" | "budget"
    multiplier: Optional[float]
    closed_loop: tuple[float, ...]
    predicted_costs: tuple[float, ...]

    @property
    def total_cost(self) -> float:
        return float(sum(self.predicted_costs))


def optimize_identical_actuator(
    channel_gains: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
    g_common: float,
) -> IdenticalActuatorDesign:
    """Optimal per-plant controller products under one shared actuator factor G.

    Absorbing G into k~_i = K_i G turns the budget into an effective one,
    gamma~ = G^2 gamma0 / (G^2 + SSR).  If gamma~ covers the unconstrained
    per-plant minima (k~_i = -a/h_i, SNR a^2/h_i^2 each) those are returned;
    otherwise k~_i follows the budget-tight stationary form, with the
    multiplier solved by bisection on the summed SNR.
    """
    require_positive(g_common, "shared actuator factor")
    if not channel_gains:
        raise ValueError("optimize_identical_actuator needs at least one plant")
    ids = tuple(pid for pid, _ in channel_gains)
    hs = np.array([h for _, h in channel_gains], dtype=float)
    a = plant.a
    ssr = noise.ssr(plant)
    gamma_tilde = g_common**2 * noise.gamma0 / (g_common**2 + ssr)
    floors = (a * a - 1.0) / hs**2
    if floors.sum() > gamma_tilde:
        raise ValueError(
            f"infeasible: effective budget gamma~ = {gamma_tilde:.6g} is below "
            f"the summed floors {floors.sum():.6g}"
        )

    def snr_of(k_tilde: np.ndarray) -> np.ndarray:
        return k_tilde**2 / (1.0 - (a + hs * k_tilde) ** 2)

    unconstrained_snr = float((a * a / hs**2).sum())
    if gamma_tilde >= unconstrained_snr:
        k_tilde = -a / hs
        regime, multiplier = "unconstrained", None
    elif gamma_tilde - floors.sum() <= _BOUNDARY_RTOL * gamma_tilde:
        # budget exactly on the floors: SNR-minimizing products
        k_tilde = -(a * a - 1.0) / (a * hs)
        regime, multiplier = "budget", None
    else:
        def products(lam: float) -> np.ndarray:
            d = (1.0 - a * a) * lam + hs**2
            c = 4.0 * a * a * hs**2 * lam
            return _stable_quadratic_root(d, c, 2.0 * a * hs * lam)

        def residual(lam: float) -> float:
            return (snr_of(products(lam)).sum() - gamma_tilde) / gamma_tilde

        multiplier = bisect_decreasing(residual)
        k_tilde = products(multiplier)
        regime = "budget"

    a_c = a + hs * k_tilde
    costs = noise.sigma_z2 * (g_common**2 + ssr) / (1.0 - a_c**2)
    return IdenticalActuatorDesign(
        plant_ids=ids,
        k_tilde=tuple(map(float, k_tilde)),
        k=tuple(float(kt / g_common) for kt in k_tilde),
        g_common=g_common,
        gamma_tilde=float(gamma_tilde),
        regime=regime,
        multiplier=multiplier,
        closed_loop=tuple(map(float, a_c)),
        predicted_costs=tuple(map(float, costs)),
    )


@dataclass(frozen=True)
class IdenticalControllerDesign:
    """Per-plant actuator factors under one shared controller factor K.

    With a common K the SNR budget is equivalent to a cap on the total cost,
    so the per-plant optima are unconstrained minimizers and feasibility is a
    post-hoc check: ``feasible`` is False when ``total_cost`` exceeds
    ``cost_limit`` = sigma_z2 gamma0 / K^2.
    """

    plant_ids: tuple[int, ...]
    g: tuple[float, ...]
    k_common: float
    closed_loop: tuple[float, ...]
    predicted_costs: tuple[float, ...]
    cost_limit: float
    feasible: bool

    @property
    def total_cost(self) -> float:
        return float(sum(self.predicted_costs))


def optimize_identical_controller(
    channel_gains: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
    k_common: float,
) -> IdenticalControllerDesign:
    """Optimal per-plant actuator factors under one shared controller factor K."""
    if not 1e-12 <= abs(k_common) < math.inf:
        raise ValueError(f"shared controller factor must be finite and nonzero (got {k_common!r})")
    if not channel_gains:
        raise ValueError("optimize_identical_controller needs at least one plant")
    ids = tuple(pid for pid, _ in channel_gains)
    hs = np.array([h for _, h in channel_gains], dtype=float)
    a = plant.a
    ssr = noise.ssr(plant)
    k = float(k_common)
    e = 1.0 - a * a + hs * hs * k * k * ssr
    c = 4.0 * a * a * hs * hs * k * k * ssr
    g = _stable_quadratic_root(e, c, 2.0 * a * hs * k)
    a_c = a + hs * k * g
    if np.any(np.abs(a_c) >= 1.0):
        raise ValueError("shared controller factor yields an unstable closed loop")
    costs = noise.sigma_z2 * (g**2 + ssr) / (1.0 - a_c**2)
    total = float(costs.sum())
    limit = noise.sigma_z2 * noise.gamma0 / k**2
    return IdenticalControllerDesign(
        plant_ids=ids,
        g=tuple(map(float, g)),
        k_common=k,
        closed_loop=tuple(map(float, a_c)),
        predicted_costs=tuple(map(float, costs)),
        cost_limit=float(limit),
        feasible=bool(total <= limit * (1.0 + 1e-12)),
    )
