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

from .model import GainPair, NoisePowers, PlantParams, gains_overflow, pairwise_sum
from .model import require_magnitude, require_positive, require_ssr, sequential_sum

#: relative slack below which a budget is treated as sitting exactly on a floor
_BOUNDARY_RTOL = 1e-12

#: relative budget residual at which the shared-actuator multiplier is solved
_BUDGET_RTOL = 1e-12


class Infeasible(ValueError):
    """The budget or shared factor admits no stabilizing design: a verdict, not bad input."""


#: a design loop's fields in order, one tuple per field with one entry per plant
_DesignFields = tuple[tuple[Optional[GainPair], ...], tuple[float, ...], tuple[float, ...],
                      tuple[float, ...]]


def slow_floor(a: float, h: "float | np.ndarray") -> "float | np.ndarray":
    """The slow-fading floor (a^2 - 1)/h^2 of gain a, at one magnitude h or an array of them."""
    return (a * a - 1.0) / (h * h)


def snr_floor(plant: PlantParams, h: float) -> float:
    """Minimum SNR that admits any stabilizing design over one checked magnitude h."""
    return slow_floor(plant.a, require_magnitude(h, "channel magnitude"))


def summed_floor(floors: Sequence[float]) -> float:
    """The least budget that covers ``floors``: the one sum every shared-budget verdict uses."""
    return pairwise_sum(floors)


def _require_budget(budget: float, floor: float, what: str) -> None:
    """The one verdict on a floor: Infeasible, naming the ``what``, when ``budget`` is below it."""
    if budget < floor:
        raise Infeasible(f"infeasible: budget {budget:.6g} is below the {what} {floor:.6g}")


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

    ``gamma`` overrides the budget (an allocation designs each plant at its
    share with the same formula); default is the full gamma0.
    The returned design meets its SNR budget with equality.  With no
    disturbance there is no optimal pair (K -> -inf), so sigma_w2 = 0 is refused.
    """
    require_positive(plant.sigma_w2, "disturbance power")
    g0 = noise.gamma0 if gamma is None else float(gamma)
    h = float(require_magnitude(h, "channel magnitude"))
    ssr = noise.ssr(plant)
    _require_budget(g0, slow_floor(plant.a, h), "stabilizability floor (a^2-1)/h^2 =")
    fields = _slow_designs(plant, ssr, [h], [g0])
    return SlowSingleDesign(*(field[0] for field in fields))


def _slow_designs(
    plant: PlantParams, ssr: float, hs: Sequence[float], budgets: Sequence[float]
) -> _DesignFields:
    """``optimize_single_slow``'s fields for each checked h at its budget (at least its floor)."""
    a, sigma_w2 = plant.a, plant.sigma_w2
    rows = []
    for h, g0 in zip(hs, budgets):
        h2g = h * h * g0
        # (1 + h2g) * margin below is about h2g^2: refuse a channel that overflows it
        if not math.isfinite(h2g * h2g):
            raise ValueError(
                f"channel magnitude {h!r} is too large: h^2 gamma = {h2g!r} overflows when squared"
            )
        grown = 1.0 + h2g
        a_c = a / grown
        # at the boundary h^2 gamma = a^2 - 1 the optimal K collapses to 0 while
        # the product G K stays finite and the cost diverges (G -> inf)
        margin = grown - a * a
        if margin <= _BOUNDARY_RTOL * grown:
            rows.append((None, a_c, math.inf, -(a * a - 1.0) / (a * h)))
            continue
        j_ave = sigma_w2 * grown / margin
        if j_ave == math.inf:  # the product overflows where the cost need not: divide first
            j_ave = sigma_w2 * (grown / margin)
        k = -math.sqrt(g0 * margin / (require_ssr(ssr) * grown))
        g = a * h * math.sqrt(g0 * ssr / (grown * margin))
        if not (math.isfinite(k) and math.isfinite(g)):
            raise gains_overflow(k, g, ssr)
        rows.append((GainPair(k, g), a_c, j_ave, g * k))
    return tuple(zip(*rows))


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
        return sequential_sum(self.predicted_costs)


def _split_slack(
    floors: list[float], weights: list[float], gamma0: float
) -> tuple[list[float], Optional[float]]:
    """Each plant's floor plus its share of the slack gamma0 - sum(floors), on plain floats.

    The slack splits in proportion to ``weights``; returns the shares and the
    slack per unit weight s.  s is None when nothing is split: one plant takes
    the whole budget, and a budget on the summed floors pins every share.
    Both sums are ``pairwise_sum``'s, numpy's sums on plain floats.
    """
    total = summed_floor(floors)
    _require_budget(gamma0, total, "summed stabilizability floors")
    if len(floors) == 1:
        return [gamma0], None
    slack = gamma0 - total
    if slack <= _BOUNDARY_RTOL * gamma0:
        return floors, None
    s = slack / pairwise_sum(weights)
    return [f + s * w for f, w in zip(floors, weights)], s


def _channel_magnitudes(
    channel_gains: Sequence[tuple[int, float]], design: str, scale: float, product: str
) -> tuple[tuple[int, ...], list[float]]:
    """Plant ids and magnitudes of (plant id, |H|) pairs, each a checked magnitude, as floats.

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
    return tuple([pid for pid, _ in channel_gains]), [float(h) for h in hs]


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
    a = plant.a
    shares, s = _split_slack([slow_floor(a, h) for h in hs], [1.0 / h for h in hs], noise.gamma0)
    multiplier = None if s is None else plant.sigma_w2 * (a / s) ** 2

    require_positive(plant.sigma_w2, "disturbance power")
    ssr = noise.ssr(plant)
    gains, _, costs, _ = _slow_designs(plant, ssr, hs, shares)
    return SnrAllocation(ids, tuple(shares), multiplier), MultiDesign(ids, gains, costs)


# ---------------------------------------------------------------------------
# shared-gain variants
# ---------------------------------------------------------------------------


def _over_zero(x: float, zero: float) -> float:
    """x / zero as numpy divides: an inf signed by both, or NaN for an x of 0 or NaN."""
    return x * math.copysign(math.inf, zero)


def _stable_quadratic_root(d: float, c: float, denom_scale: float) -> float:
    """Numerically stable (d - sqrt(d^2 + c)) / denom_scale for c > 0, on plain floats.

    The naive form cancels catastrophically when d >> c; the conjugate form
    -c / (d + sqrt(d^2 + c)) is exact in that regime.
    """
    t = abs(d) + math.sqrt(d * d + c)
    if d >= 0.0:
        num, den = -c, t * denom_scale
    else:
        num, den = -t, denom_scale
    return num / den if den else _over_zero(num, den)


def _budget_multiplier(
    a: float, hs: list[float], gamma_tilde: float, uncapped: float
) -> tuple[float, list[float]]:
    """The multiplier lam at which the budget-tight products k~_i(lam) spend gamma~, and k~.

    k~_i(lam) is the stabilizing root of plant i's stationarity.  The shares
    (a^2 - 1 + theta)/h_i^2 that sum to gamma~ lie strictly between each
    floor and each uncapped SNR a^2/h_i^2, and plant i alone meets its
    share at lam_i = scale h_i^2.  The summed SNR falls as lam grows, so
    [min lam_i, max lam_i] brackets the root.  Illinois regula falsi (Dowell &
    Jarratt, 1971) on log lam shrinks the bracket to a budget residual of
    _BUDGET_RTOL.  Each residual steps through the plants on plain floats,
    with ``_stable_quadratic_root``'s operations inline, and sums its terms
    with ``pairwise_sum``, numpy's sum on plain floats.
    """
    # numpy's power, not float ** -2, which differs in the last bit on a few h
    inv_h2 = pairwise_sum((np.array(hs) ** -2).tolist())
    theta = gamma_tilde / inv_h2 - (a * a - 1.0)
    q = a * a - 1.0 + theta
    s = math.sqrt(q * theta)
    b = abs(a)
    # lam_i = h_i^2 a_c / ((a_c - a)(a a_c - 1)) at the shared closed loop
    # a_c = (a - sgn(a) s)/(a^2 + theta), free of cancellation; 1 - theta as given
    scale = (uncapped - gamma_tilde) / inv_h2 * (a * a + theta) ** 2
    scale /= (b + s) * (b * q + s) * (b * s + theta)

    # the factors of k~_i(lam) that do not depend on lam, formed once
    d_unit, c_unit, scale_unit = 1.0 - a * a, 4.0 * a * a, 2.0 * a
    plants = [(h, h * h, c_unit * (h * h), scale_unit * h) for h in hs]

    def residual(lam: float) -> tuple[float, list[float]]:
        k_tilde, terms = [], []
        for h, h2, c_h, scale_h in plants:
            d, c, ds = d_unit * lam + h2, c_h * lam, scale_h * lam
            t = abs(d) + math.sqrt(d * d + c)
            if d >= 0.0:
                num, den = -c, t * ds
            else:
                num, den = -t, ds
            k = num / den if den else _over_zero(num, den)
            a_c = a + h * k
            den = 1.0 - a_c * a_c
            k_tilde.append(k)
            terms.append(k * k / den if den else _over_zero(k * k, den))
        spent = pairwise_sum(terms)
        return (spent - gamma_tilde) / gamma_tilde, k_tilde

    lo, hi = scale * min(hs) ** 2, scale * max(hs) ** 2
    (r_lo, k_lo), (r_hi, k_hi) = residual(lo), residual(hi)
    best = min((abs(r_lo), lo, k_lo), (abs(r_hi), hi, k_hi))
    kept = 0  # the end the last step kept: -1 low, 1 high
    while best[0] > _BUDGET_RTOL and r_lo > 0.0 > r_hi:
        lam = math.exp((math.log(lo) * r_hi - math.log(hi) * r_lo) / (r_hi - r_lo))
        if not lo < lam < hi:  # the bracket is down to adjacent floats
            break
        r, k_tilde = residual(lam)
        best = min(best, (abs(r), lam, k_tilde))
        # Illinois: an end kept a second time running has its residual halved
        if r > 0.0:
            lo, r_lo = lam, r
            r_hi /= 2.0 if kept == 1 else 1.0
            kept = 1
        else:
            hi, r_hi = lam, r
            r_lo /= 2.0 if kept == -1 else 1.0
            kept = -1
    return best[1], best[2]


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
        return sequential_sum(self.predicted_costs)


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
    g_common = float(require_magnitude(g_common, "shared actuator factor"))
    ids, hs = _channel_magnitudes(
        channel_gains, "optimize_identical_actuator", noise.gamma0, "h^2 gamma0"
    )
    a = plant.a
    ssr = noise.ssr(plant)
    gamma_tilde = float(g_common**2 * noise.gamma0 / (g_common**2 + ssr))
    floor_sum = summed_floor([slow_floor(a, h) for h in hs])
    _require_budget(gamma_tilde, floor_sum, "summed floors of the shared-actuator design")

    unconstrained_snr = pairwise_sum([a * a / (h * h) for h in hs])
    if gamma_tilde >= unconstrained_snr:
        k_tilde = [-a / h for h in hs]
        regime, multiplier = "unconstrained", None
    elif gamma_tilde - floor_sum <= _BOUNDARY_RTOL * gamma_tilde:
        # budget exactly on the floors: SNR-minimizing products
        k_tilde = [-(a * a - 1.0) / (a * h) for h in hs]
        regime, multiplier = "budget", None
    else:
        multiplier, k_tilde = _budget_multiplier(a, hs, gamma_tilde, unconstrained_snr)
        regime = "budget"

    a_c = [a + h * k for h, k in zip(hs, k_tilde)]
    power = noise.sigma_z2 * (g_common**2 + ssr)
    margins = [1.0 - x * x for x in a_c]
    return IdenticalActuatorDesign(
        plant_ids=ids,
        k_tilde=tuple(k_tilde),
        k=tuple([k / g_common for k in k_tilde]),
        gamma_tilde=gamma_tilde,
        regime=regime,
        multiplier=multiplier,
        closed_loop=tuple(a_c),
        predicted_costs=tuple([power / m if m else _over_zero(power, m) for m in margins]),
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
        return sequential_sum(self.predicted_costs)


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
        raise ValueError(
            f"shared controller factor must be finite with |K| >= 1e-12 (got {k_common!r})"
        )
    k = float(k_common)
    ssr = noise.ssr(plant)
    ids, hs = _channel_magnitudes(
        channel_gains, "optimize_identical_controller", k * k * ssr, "h^2 k^2 SSR"
    )
    a = plant.a
    g = [
        _stable_quadratic_root(
            1.0 - a * a + h * h * k * k * ssr, 4.0 * a * a * h * h * k * k * ssr, 2.0 * a * h * k
        )
        for h in hs
    ]
    a_c = [a + h * k * x for h, x in zip(hs, g)]
    if any(abs(x) >= 1.0 for x in a_c):
        raise Infeasible("shared controller factor yields an unstable closed loop")
    costs = [noise.sigma_z2 * (x * x + ssr) / (1.0 - y * y) for x, y in zip(g, a_c)]
    total = pairwise_sum(costs)
    limit = noise.sigma_z2 * noise.gamma0 / k**2
    if total > limit * (1.0 + 1e-12):
        raise Infeasible(
            f"infeasible: total cost {total:.6g} under the shared controller factor "
            f"exceeds the budget's cap {limit:.6g}"
        )
    return IdenticalControllerDesign(
        plant_ids=ids,
        g=tuple(g),
        closed_loop=tuple(a_c),
        predicted_costs=tuple(costs),
    )
