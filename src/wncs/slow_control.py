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

#: relative slack below which a budget is treated as sitting exactly on a floor
_BOUNDARY_RTOL = 1e-12

#: relative budget residual at which the shared-actuator multiplier is solved
_BUDGET_RTOL = 1e-12


class Infeasible(ValueError):
    """The budget or shared factor admits no stabilizing design: a verdict, not bad input."""


def snr_floor(plant: PlantParams, h: float) -> float:
    """Minimum SNR that admits any stabilizing design: (a^2 - 1)/h^2."""
    require_magnitude(h, "channel magnitude")
    return (plant.a**2 - 1.0) / h**2


@dataclass(frozen=True)
class SlowSingleDesign:
    """Optimal single-plant design for one block gain.

    On the feasibility boundary the optimum is a limit (K -> 0, G -> inf with
    the product finite): ``gains`` is None, ``j_ave`` is inf and only
    ``gain_product`` and ``a_c`` remain meaningful.
    """

    gains: Optional[GainPair]
    a_c: float
    j_ave: float
    gain_product: float


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
        raise Infeasible(
            f"infeasible: budget gamma={g0:.6g} is below the stabilizability "
            f"floor (a^2-1)/h^2 = {floor:.6g}"
        )
    a = plant.a
    h2g = h * h * g0
    # (h2g + 1) * margin below is about h2g^2: refuse a channel that overflows it
    if not math.isfinite(h2g * h2g):
        raise ValueError(
            f"channel magnitude {h!r} is too large: h^2 gamma = {h2g!r} overflows when squared"
        )
    a_c = a / (1.0 + h2g)
    # at the boundary h^2 gamma = a^2 - 1 the optimal K collapses to 0 while
    # the product G K stays finite and the cost diverges (G -> inf)
    margin = h2g + 1.0 - a * a
    if margin <= _BOUNDARY_RTOL * (h2g + 1.0):
        return SlowSingleDesign(
            gains=None, a_c=a_c, j_ave=math.inf, gain_product=-(a * a - 1.0) / (a * h)
        )
    j_ave = plant.sigma_w2 * (1.0 + h2g) / margin
    ssr = noise.ssr(plant)
    k = -np.sqrt(g0 * margin / (ssr * (h2g + 1.0)))
    g = a * h * np.sqrt(g0 * ssr / ((h2g + 1.0) * margin))
    gains = GainPair(k=float(k), g=float(g))
    return SlowSingleDesign(gains=gains, a_c=a_c, j_ave=j_ave, gain_product=gains.product)


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
class MultiDesign:
    """Jointly optimal per-plant designs under one shared SNR budget.

    Both allocators return one.  A share that sits exactly on its plant's
    floor has only a limiting design: its gains are None and its cost inf.
    """

    plant_ids: tuple[int, ...]
    gains: tuple[Optional[GainPair], ...]
    predicted_costs: tuple[float, ...]

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
        raise Infeasible(
            f"infeasible: summed stabilizability floors {floors.sum():.6g} "
            f"exceed the budget gamma0 = {gamma0:.6g}"
        )
    if len(floors) == 1:
        return np.array([gamma0]), None
    if slack <= _BOUNDARY_RTOL * gamma0:
        return floors.copy(), None
    s = float(slack / weights.sum())
    return floors + s * weights, s


def _channel_magnitudes(
    channel_gains: Sequence[tuple[int, float]], design: str, scale: float, product: str
) -> tuple[tuple[int, ...], np.ndarray]:
    """Plant ids and magnitudes of (plant id, |H|) pairs, each a checked magnitude.

    The designs multiply two terms of size h^2 scale (scale is the SNR budget,
    or k^2 SSR under a shared controller factor), so the largest h must also
    keep (h^2 scale)^2 finite; ``product`` names h^2 scale in the refusal.
    """
    if not channel_gains:
        raise ValueError(f"{design} needs at least one plant")
    hs = [require_magnitude(h, "channel magnitude") for _, h in channel_gains]
    top = max(hs)
    h2s = top * top * scale
    if not math.isfinite(h2s * h2s):
        raise ValueError(
            f"plant {channel_gains[hs.index(top)][0]}'s channel magnitude {top!r} is too "
            f"large: {product} = {h2s!r} overflows when squared"
        )
    return tuple(pid for pid, _ in channel_gains), np.array(hs, dtype=float)


def allocate_multi_slow(
    channel_gains: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
) -> tuple[SnrAllocation, MultiDesign]:
    """Split gamma0 across plants and design each at its share.

    Equal marginal cost across plants gives the interior share

        gamma_i(lam) = (a^2 - 1)/h_i^2 + (|a|/h_i) sqrt(sigma_w2/lam),

    and sum gamma_i = gamma0 has the closed-form root lam = sigma_w2 (a/s)^2,
    s = (gamma0 - sum floors) / sum 1/h_i: the slack above the per-plant
    floors (a^2-1)/h_i^2 splits in proportion to 1/h_i.  The split is
    channel-inverting: larger h_i, smaller gamma_i.
    """
    ids, hs = _channel_magnitudes(channel_gains, "allocate_multi_slow", noise.gamma0, "h^2 gamma0")
    floors = (plant.a * plant.a - 1.0) / hs**2
    gamma, s = _split_slack(floors, 1.0 / hs, noise.gamma0)
    multiplier = None if s is None else plant.sigma_w2 * (plant.a / s) ** 2

    designs = [
        optimize_single_slow(plant, noise, h, gamma=gam)
        for h, gam in zip(hs, gamma)
    ]
    allocation = SnrAllocation(plant_ids=ids, gamma=tuple(map(float, gamma)), multiplier=multiplier)
    gains = tuple(d.gains for d in designs)
    return allocation, MultiDesign(ids, gains, tuple(d.j_ave for d in designs))


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


def _budget_products(a: float, hs: np.ndarray, lam: float) -> np.ndarray:
    """Budget-tight products k~_i(lam): the stabilizing root of each plant's stationarity."""
    d = (1.0 - a * a) * lam + hs**2
    c = 4.0 * a * a * hs**2 * lam
    return _stable_quadratic_root(d, c, 2.0 * a * hs * lam)


def _budget_multiplier(a: float, hs: np.ndarray, gamma_tilde: float, uncapped: float) -> float:
    """The multiplier at which the summed SNR of ``_budget_products`` is gamma~.

    The shares (a^2 - 1 + theta)/h_i^2 that sum to gamma~ lie strictly between
    each floor and each uncapped SNR a^2/h_i^2, and plant i alone meets its
    share at lam_i = scale h_i^2.  The summed SNR falls as lam grows, so
    [min lam_i, max lam_i] brackets the root.  Illinois regula falsi (Dowell &
    Jarratt, 1971) on log lam shrinks the bracket to a budget residual of
    _BUDGET_RTOL.
    """
    inv_h2 = float((hs**-2).sum())
    theta = gamma_tilde / inv_h2 - (a * a - 1.0)
    q = a * a - 1.0 + theta
    s = math.sqrt(q * theta)
    b = abs(a)
    # lam_i = h_i^2 a_c / ((a_c - a)(a a_c - 1)) at the shared closed loop
    # a_c = (a - sgn(a) s)/(a^2 + theta), free of cancellation; 1 - theta as given
    scale = (uncapped - gamma_tilde) / inv_h2 * (a * a + theta) ** 2
    scale /= (b + s) * (b * q + s) * (b * s + theta)

    def residual(lam: float) -> float:
        k_tilde = _budget_products(a, hs, lam)
        spent = float((k_tilde**2 / (1.0 - (a + hs * k_tilde) ** 2)).sum())
        return (spent - gamma_tilde) / gamma_tilde

    lo, hi = scale * float(hs.min()) ** 2, scale * float(hs.max()) ** 2
    r_lo, r_hi = residual(lo), residual(hi)
    best = min((abs(r_lo), lo), (abs(r_hi), hi))
    kept = 0  # the end the last step kept: -1 low, 1 high
    while best[0] > _BUDGET_RTOL and r_lo > 0.0 > r_hi:
        lam = math.exp((math.log(lo) * r_hi - math.log(hi) * r_lo) / (r_hi - r_lo))
        if not lo < lam < hi:  # the bracket is down to adjacent floats
            break
        r = residual(lam)
        best = min(best, (abs(r), lam))
        # Illinois: an end kept a second time running has its residual halved
        if r > 0.0:
            lo, r_lo = lam, r
            r_hi /= 2.0 if kept == 1 else 1.0
            kept = 1
        else:
            hi, r_hi = lam, r
            r_lo /= 2.0 if kept == -1 else 1.0
            kept = -1
    return best[1]


@dataclass(frozen=True)
class IdenticalActuatorDesign:
    """Per-plant effective products k~_i = K_i G under one shared actuator factor."""

    plant_ids: tuple[int, ...]
    k_tilde: tuple[float, ...]
    k: tuple[float, ...]
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
    otherwise k~_i follows the budget-tight stationary form, whose multiplier
    solves the summed-SNR equation (``_budget_multiplier``).
    """
    require_positive(g_common, "shared actuator factor")
    ids, hs = _channel_magnitudes(
        channel_gains, "optimize_identical_actuator", noise.gamma0, "h^2 gamma0"
    )
    a = plant.a
    ssr = noise.ssr(plant)
    gamma_tilde = g_common**2 * noise.gamma0 / (g_common**2 + ssr)
    floors = (a * a - 1.0) / hs**2
    if floors.sum() > gamma_tilde:
        raise Infeasible(
            f"infeasible: effective budget gamma~ = {gamma_tilde:.6g} is below "
            f"the summed floors {floors.sum():.6g}"
        )

    unconstrained_snr = float((a * a / hs**2).sum())
    if gamma_tilde >= unconstrained_snr:
        k_tilde = -a / hs
        regime, multiplier = "unconstrained", None
    elif gamma_tilde - floors.sum() <= _BOUNDARY_RTOL * gamma_tilde:
        # budget exactly on the floors: SNR-minimizing products
        k_tilde = -(a * a - 1.0) / (a * hs)
        regime, multiplier = "budget", None
    else:
        multiplier = _budget_multiplier(a, hs, gamma_tilde, unconstrained_snr)
        k_tilde = _budget_products(a, hs, multiplier)
        regime = "budget"

    a_c = a + hs * k_tilde
    costs = noise.sigma_z2 * (g_common**2 + ssr) / (1.0 - a_c**2)
    return IdenticalActuatorDesign(
        plant_ids=ids,
        k_tilde=tuple(map(float, k_tilde)),
        k=tuple(float(kt / g_common) for kt in k_tilde),
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
    sigma_z2 gamma0 / K^2, so the per-plant optima are unconstrained
    minimizers and the cap is checked after them.
    """

    plant_ids: tuple[int, ...]
    g: tuple[float, ...]
    closed_loop: tuple[float, ...]
    predicted_costs: tuple[float, ...]

    @property
    def total_cost(self) -> float:
        return float(sum(self.predicted_costs))


def optimize_identical_controller(
    channel_gains: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
    k_common: float,
) -> IdenticalControllerDesign:
    """Optimal per-plant actuator factors under one shared controller factor K.

    Raises ``Infeasible`` when a closed loop is unstable or the total cost
    exceeds the budget's cap sigma_z2 gamma0 / K^2.
    """
    if not 1e-12 <= abs(k_common) < math.inf:
        raise ValueError(f"shared controller factor must be finite and nonzero (got {k_common!r})")
    k = float(k_common)
    ssr = noise.ssr(plant)
    ids, hs = _channel_magnitudes(
        channel_gains, "optimize_identical_controller", k * k * ssr, "h^2 k^2 SSR"
    )
    a = plant.a
    e = 1.0 - a * a + hs * hs * k * k * ssr
    c = 4.0 * a * a * hs * hs * k * k * ssr
    g = _stable_quadratic_root(e, c, 2.0 * a * hs * k)
    a_c = a + hs * k * g
    if np.any(np.abs(a_c) >= 1.0):
        raise Infeasible("shared controller factor yields an unstable closed loop")
    costs = noise.sigma_z2 * (g**2 + ssr) / (1.0 - a_c**2)
    total = float(costs.sum())
    limit = noise.sigma_z2 * noise.gamma0 / k**2
    if total > limit * (1.0 + 1e-12):
        raise Infeasible(
            f"infeasible: total cost {total:.6g} under the shared controller factor "
            f"exceeds the budget's cap {limit:.6g}"
        )
    return IdenticalControllerDesign(
        plant_ids=ids,
        g=tuple(map(float, g)),
        closed_loop=tuple(map(float, a_c)),
        predicted_costs=tuple(map(float, costs)),
    )
