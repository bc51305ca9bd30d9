"""Scalar plant model, loop algebra and cost accounting.

The controlled process is the scalar linear plant

    x(t+1) = A x(t) + u(t) + w(t),    |A| > 1,

driven over an analog (uncoded) feedback loop: the controller transmits
v(t) = K x(t), the channel returns r(t) = H v(t) + z(t), and the actuator
applies u(t) = G r(t).  For a constant channel gain the closed loop collapses
to

    x(t+1) = A_c x(t) + G z(t) + w(t),    A_c = A + G H K,

so every design question in this package reduces to placing the closed-loop
factor A_c and the noise amplification G under a transmit-SNR budget.  The
quadratic cost is the long-run time average of E[x(t)^2] summed over plants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: trajectories whose magnitude passes this guard are truncated and reported
#: as diverged instead of polluting averages with overflow
DIVERGENCE_GUARD = 1e12


def require_positive(value: float, what: str) -> float:
    """``value`` itself when it is finite and > 0; otherwise ValueError naming ``what``."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and > 0 (got {value!r})")
    return value


@dataclass(frozen=True)
class PlantParams:
    """Open-loop plant: gain ``a`` with |a| > 1 and disturbance power ``sigma_w2``."""

    a: float
    sigma_w2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.sigma_w2)):
            raise ValueError(
                f"plant parameters must be finite (got a={self.a!r}, sigma_w2={self.sigma_w2!r})"
            )
        if abs(self.a) <= 1.0:
            raise ValueError(
                f"plant gain must satisfy |a| > 1 (got a={self.a!r}); "
                "a stable plant needs no feedback loop"
            )
        if self.sigma_w2 < 0.0:
            raise ValueError(f"disturbance power must be >= 0 (got {self.sigma_w2!r})")


@dataclass(frozen=True)
class NoisePowers:
    """Channel noise power ``sigma_z2`` and the transmit power budget ``p0``.

    Both are linear watts.  ``gamma0`` is the SNR budget p0/sigma_z2; ``ssr``
    is the disturbance-to-channel-noise ratio sigma_w2/sigma_z2 of a given
    plant, the quantity that couples control performance to link quality.
    """

    sigma_z2: float
    p0: float

    def __post_init__(self) -> None:
        require_positive(self.sigma_z2, "channel noise power")
        require_positive(self.p0, "power budget")

    @property
    def gamma0(self) -> float:
        return self.p0 / self.sigma_z2

    def ssr(self, plant: PlantParams) -> float:
        return plant.sigma_w2 / self.sigma_z2


@dataclass(frozen=True)
class GainPair:
    """Controller factor ``k`` and actuator factor ``g``.

    Designs produced by the optimizers in this package always satisfy g > 0
    and k < 0 (negative feedback); the pair itself is just a value container.
    """

    k: float
    g: float

    @property
    def product(self) -> float:
        return self.g * self.k


@dataclass(frozen=True)
class PlantCost:
    """Per-plant slice of a cost report."""

    plant_id: int
    cost: float
    stable: bool


@dataclass(frozen=True)
class CostReport:
    """Empirical (and optionally predicted) quadratic cost over a horizon.

    ``j_t`` is the realized time-average sum cost; ``per_plant`` carries the
    per-plant breakdown whose costs sum to ``j_t``; ``j_ave_predicted`` is the
    closed-form steady-state value when the caller knows it (inf for provably
    unstable designs).
    """

    j_t: float
    per_plant: tuple[PlantCost, ...]
    horizon: int
    j_ave_predicted: Optional[float] = None


def predicted_cost_slow(
    plant: PlantParams, noise: NoisePowers, gains: GainPair, h: float
) -> float:
    """Steady-state cost (g^2 sigma_z2 + sigma_w2)/(1 - A_c^2) of a fixed-gain loop.

    Returns inf when |A_c| >= 1: with an unstable closed loop the second
    moment grows geometrically and no steady state exists.
    """
    require_positive(h, "channel magnitude")
    a_c = plant.a + gains.g * h * gains.k
    if abs(a_c) >= 1.0:
        return math.inf
    return (gains.g**2 * noise.sigma_z2 + plant.sigma_w2) / (1.0 - a_c**2)
