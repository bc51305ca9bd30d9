"""Gain design under per-symbol (fast) fading with sign-only channel knowledge.

The sensor multiplies its transmission by sgn(h(t)), so the loop sees the
channel magnitude |h(t)|:

    x(t+1) = (A + G |h| K) x(t) + G z + w,       h ~ N(0, sigma_h2) i.i.d.

Mean-square stability is governed by E[A_c^2] rather than A_c itself.  With
u = G K and b = E|h| = sqrt(2 sigma_h2 / pi),

    E[A_c^2] = sigma_h2 u^2 + 2 b A u + A^2,

minimized at u = -bA/sigma_h2 where it equals A^2 (1 - 2/pi).  Hence sign-only
knowledge stabilizes iff A^2 (1 - 2/pi) < 1 -- no SNR budget can rescue
|A| >= 1/sqrt(1 - 2/pi) ~= 1.6589.  Without even the sign, E[A_c^2] =
A^2 + u^2 sigma_h2 > 1 always: some channel knowledge is necessary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import GainPair, NoisePowers, PlantParams, gains_overflow, require_positive
from .model import require_ssr
from .slow_control import (
    _BOUNDARY_RTOL, _DesignFields, MultiDesign, SnrAllocation, _require_budget, _split_slack,
)

#: stabilizability constant for sign-only channel knowledge, 1 - 2/pi
ETA = 1.0 - 2.0 / math.pi


def require_channel_power(sigma_h2: float) -> float:
    """``sigma_h2`` itself when it is finite, > 0 and 2 sigma_h2 is finite; else ValueError."""
    if require_positive(sigma_h2, "channel power") * 2.0 == math.inf:
        raise ValueError(f"channel power is too large: 2 sigma_h2 overflows (got {sigma_h2!r})")
    return sigma_h2


def mean_channel_magnitude(sigma_h2: float) -> float:
    """E|h| for h ~ N(0, sigma_h2): sqrt(2 sigma_h2 / pi)."""
    return math.sqrt(2.0 * require_channel_power(sigma_h2) / math.pi)


def expected_ac2(plant: PlantParams, gain_product: float, sigma_h2: float) -> float:
    """E[(A + G|h|K)^2] under sign pre-compensation, as a function of u = GK."""
    u = gain_product
    b = mean_channel_magnitude(sigma_h2)
    return sigma_h2 * u * u + 2.0 * b * plant.a * u + plant.a**2


def fast_floor(a: float, sigma_h2: float) -> float:
    """The fast-fading floor (a^2 - 1)/((1 - eta a^2) sigma_h2) at one channel power."""
    # no budget stabilizes a when 1 - eta a^2 <= 0, nor when a tiny sigma_h2
    # underflows the denominator to 0: then the floor is inf
    denominator = (1.0 - ETA * a * a) * sigma_h2
    return (a * a - 1.0) / denominator if denominator > 0.0 else math.inf


def stabilizable_fast(plant: PlantParams) -> bool:
    """Whether sign-only knowledge can achieve E[A_c^2] < 1 at any SNR: a finite floor."""
    return math.isfinite(fast_floor(plant.a, 1.0))


def fast_snr_floor(plant: PlantParams, sigma_h2: float) -> float:
    """Minimum SNR admitting a mean-square stabilizing design at one checked power, or inf."""
    return fast_floor(plant.a, require_channel_power(sigma_h2))


@dataclass(frozen=True)
class FastSingleDesign:
    """Optimal single-plant design under per-symbol fading.

    On the feasibility boundary the cost diverges (K -> 0 with the product
    u = GK finite): ``gains`` is None and ``j_ave`` is inf.
    """

    gains: Optional[GainPair]
    gain_product: float
    expected_ac2: float
    j_ave: float


def optimize_single_fast(
    plant: PlantParams,
    noise: NoisePowers,
    sigma_h2: float,
    gamma: Optional[float] = None,
) -> FastSingleDesign:
    """Cost-optimal (K, G) for one plant under per-symbol fading.

    The budget binds: with u = GK the constraint K^2 J = gamma sigma_z2 pins
    K^2 SSR = gamma (1 - E[A_c^2](u)) - u^2, and the cost

        J(u) = gamma sigma_w2 / (gamma (1 - E[A_c^2](u)) - u^2)

    is minimized by u* = -bA gamma / (1 + sigma_h2 gamma).  With no
    disturbance there is no optimal pair (K -> -inf), so sigma_w2 = 0 is refused.
    """
    require_positive(plant.sigma_w2, "disturbance power")
    g0 = noise.gamma0 if gamma is None else float(gamma)
    s = float(require_channel_power(sigma_h2))
    ssr = noise.ssr(plant)
    _require_budget(g0, fast_floor(plant.a, s), "mean-square stabilizability floor")
    fields = _fast_designs(plant, ssr, [s], [g0])
    return FastSingleDesign(*(field[0] for field in fields))


def _fast_designs(
    plant: PlantParams, ssr: float, ss: Sequence[float], budgets: Sequence[float]
) -> _DesignFields:
    """``optimize_single_fast``'s fields for each checked s at its budget (at least its floor)."""
    a, sigma_w2 = plant.a, plant.sigma_w2
    a2 = a**2
    rows = []
    for s, g0 in zip(ss, budgets):
        b = math.sqrt(2.0 * s / math.pi)
        u = -b * a * g0 / (1.0 + s * g0)
        e_star = s * u * u + 2.0 * b * a * u + a2  # expected_ac2, with s checked once
        denom = (1.0 - e_star) * g0 - u * u
        if denom <= _BOUNDARY_RTOL * (1.0 - e_star) * g0:
            rows.append((None, u, e_star, math.inf))
            continue
        k = -math.sqrt(denom / require_ssr(ssr))
        g = u / k
        if not (math.isfinite(k) and math.isfinite(g)):
            raise gains_overflow(k, g, ssr)
        cost = g0 * sigma_w2 / denom
        if cost == math.inf:  # the product overflows where the cost need not: divide first
            cost = g0 / denom * sigma_w2
        rows.append((GainPair(k, g), u, e_star, cost))
    return tuple(zip(*rows))


def allocate_multi_fast(
    channel_powers: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
) -> tuple[SnrAllocation, MultiDesign]:
    """Split gamma0 across plants under per-symbol fading, then design each.

    Equalizing marginal costs gives the interior share

        gamma_i(lam) = floor_i + (|A| / (1 - eta A^2)) sqrt(2 / (pi sigma_h2_i lam)),

    and sum gamma_i = gamma0 has the closed-form root
    lam = (2/pi) (A / (1 - eta A^2) / s)^2, s = (gamma0 - sum floors) /
    sum 1/sqrt(sigma_h2_i): the slack splits in proportion to
    1/sqrt(sigma_h2_i).  Every share sits strictly above its floor whenever
    there is slack, so the allocation is channel-inverting in the average
    channel power.
    """
    if not channel_powers:
        raise ValueError("allocate_multi_fast needs at least one plant")
    ids = tuple(pid for pid, _ in channel_powers)
    ss = [float(require_channel_power(v)) for _, v in channel_powers]
    a = plant.a
    # an unstabilizable plant's floors are inf, so the split refuses it
    shares, s = _split_slack(
        [fast_floor(a, v) for v in ss], [1.0 / math.sqrt(v) for v in ss], noise.gamma0
    )
    multiplier = None if s is None else (2.0 / math.pi) * (a / (1.0 - ETA * a * a) / s) ** 2

    require_positive(plant.sigma_w2, "disturbance power")
    ssr = noise.ssr(plant)
    gains, _, _, costs = _fast_designs(plant, ssr, ss, shares)
    return SnrAllocation(ids, tuple(shares), multiplier), MultiDesign(ids, gains, costs)
