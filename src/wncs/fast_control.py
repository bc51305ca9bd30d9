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

import numpy as np

from .model import GainPair, NoisePowers, PlantParams, require_positive
from .slow_control import _BOUNDARY_RTOL, SnrAllocation, _split_slack

#: stabilizability constant for sign-only channel knowledge, 1 - 2/pi
ETA = 1.0 - 2.0 / math.pi


def mean_channel_magnitude(sigma_h2: float) -> float:
    """E|h| for h ~ N(0, sigma_h2): sqrt(2 sigma_h2 / pi)."""
    require_positive(sigma_h2, "channel power")
    return math.sqrt(2.0 * sigma_h2 / math.pi)


def expected_ac2(plant: PlantParams, gain_product: float, sigma_h2: float) -> float:
    """E[(A + G|h|K)^2] under sign pre-compensation, as a function of u = GK."""
    u = gain_product
    b = mean_channel_magnitude(sigma_h2)
    return sigma_h2 * u * u + 2.0 * b * plant.a * u + plant.a**2


def stabilizable_fast(plant: PlantParams) -> bool:
    """Whether sign-only knowledge can achieve E[A_c^2] < 1 at any SNR."""
    return plant.a**2 * ETA < 1.0


def fast_snr_floor(plant: PlantParams, sigma_h2: float) -> float:
    """Minimum SNR admitting a mean-square stabilizing design; inf if none does."""
    require_positive(sigma_h2, "channel power")
    if not stabilizable_fast(plant):
        return math.inf
    return (plant.a**2 - 1.0) / ((1.0 - ETA * plant.a**2) * sigma_h2)


@dataclass(frozen=True)
class FastSingleDesign:
    """Optimal single-plant design under per-symbol fading.

    On the feasibility boundary the cost diverges (K -> 0 with the product
    u = GK finite): ``gains`` is None, ``j_ave`` is inf, ``degenerate`` True.
    """

    gains: Optional[GainPair]
    gain_product: float
    expected_ac2: float
    j_ave: float
    snr: float
    degenerate: bool = False


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

    is minimized by u* = -bA gamma / (1 + sigma_h2 gamma).
    """
    g0 = noise.gamma0 if gamma is None else float(gamma)
    floor = fast_snr_floor(plant, sigma_h2)
    if g0 < floor:
        raise ValueError(
            f"infeasible: budget gamma={g0:.6g} is below the mean-square "
            f"stabilizability floor {floor:.6g}"
        )
    a = plant.a
    s = sigma_h2
    b = mean_channel_magnitude(s)
    u = -b * a * g0 / (1.0 + s * g0)
    e_star = expected_ac2(plant, u, s)
    denom = (1.0 - e_star) * g0 - u * u
    if denom <= _BOUNDARY_RTOL * (1.0 - e_star) * g0:
        return FastSingleDesign(
            gains=None,
            gain_product=float(u),
            expected_ac2=float(e_star),
            j_ave=math.inf,
            snr=g0,
            degenerate=True,
        )
    ssr = noise.ssr(plant)
    k = -math.sqrt(denom / ssr)
    g = u / k
    return FastSingleDesign(
        gains=GainPair(k=float(k), g=float(g)),
        gain_product=float(u),
        expected_ac2=float(e_star),
        j_ave=float(g0 * plant.sigma_w2 / denom),
        snr=g0,
        degenerate=False,
    )


@dataclass(frozen=True)
class FastDesign:
    """Jointly optimal per-plant designs under one shared SNR budget."""

    plant_ids: tuple[int, ...]
    gains: tuple[Optional[GainPair], ...]
    expected_ac2: tuple[float, ...]
    predicted_costs: tuple[float, ...]
    degenerate: tuple[bool, ...]

    @property
    def total_cost(self) -> float:
        return float(sum(self.predicted_costs))


def allocate_multi_fast(
    channel_powers: Sequence[tuple[int, float]],
    plant: PlantParams,
    noise: NoisePowers,
) -> tuple[SnrAllocation, FastDesign]:
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
    ss = np.array([require_positive(v, "channel power") for _, v in channel_powers])
    a = plant.a
    if not stabilizable_fast(plant):
        raise ValueError(
            f"plant with a={a!r} cannot be mean-square stabilized under "
            f"per-symbol fading (a^2 (1 - 2/pi) >= 1)"
        )
    floors = (a * a - 1.0) / ((1.0 - ETA * a * a) * ss)
    gamma, s = _split_slack(floors, 1.0 / np.sqrt(ss), noise.gamma0)
    multiplier = None if s is None else (2.0 / math.pi) * (a / (1.0 - ETA * a * a) / s) ** 2

    designs = [
        optimize_single_fast(plant, noise, s, gamma=gam)
        for s, gam in zip(ss, gamma)
    ]
    allocation = SnrAllocation(plant_ids=ids, gamma=tuple(map(float, gamma)), multiplier=multiplier)
    design = FastDesign(
        plant_ids=ids,
        gains=tuple(d.gains for d in designs),
        expected_ac2=tuple(d.expected_ac2 for d in designs),
        predicted_costs=tuple(d.j_ave for d in designs),
        degenerate=tuple(d.degenerate for d in designs),
    )
    return allocation, design
