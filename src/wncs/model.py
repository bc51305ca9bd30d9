"""Scalar plant model, loop algebra and the one simulation kernel.

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
Every simulated loop, analog or coded, is the recursion x(t+1) = c_t x(t) + n_t
that ``simulate_loop`` steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: trajectories whose magnitude passes this guard are truncated and reported
#: as diverged instead of polluting averages with overflow
DIVERGENCE_GUARD = 1e12


def require_positive(value: float, what: str) -> float:
    """``value`` itself when it is finite and > 0; otherwise ValueError naming ``what``."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and > 0 (got {value!r})")
    return value


def require_magnitude(value: float, what: str) -> float:
    """``require_positive``, and also ValueError when ``value`` squared overflows or is 0."""
    square = require_positive(value, what) * value
    if square == math.inf:
        raise ValueError(f"{what} is too large: its square overflows (got {value!r})")
    if square == 0.0:
        raise ValueError(f"{what} is too small: its square underflows to 0 (got {value!r})")
    return value


@dataclass(frozen=True)
class PlantParams:
    """Open-loop plant: gain ``a`` with |a| > 1 and disturbance power ``sigma_w2``."""

    a: float
    sigma_w2: float

    def __post_init__(self) -> None:
        # the designs square a: a finite a whose square overflows is refused too
        if not (math.isfinite(self.a * self.a) and math.isfinite(self.sigma_w2)):
            raise ValueError(
                f"plant parameters and a^2 must be finite "
                f"(got a={self.a!r}, sigma_w2={self.sigma_w2!r})"
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


def predicted_cost_slow(
    plant: PlantParams, noise: NoisePowers, gains: GainPair, h: float
) -> float:
    """Steady-state cost (g^2 sigma_z2 + sigma_w2)/(1 - A_c^2) of a fixed-gain loop.

    Returns inf when |A_c| >= 1: with an unstable closed loop the second
    moment grows geometrically and no steady state exists.
    """
    require_magnitude(h, "channel magnitude")
    a_c = plant.a + gains.g * h * gains.k
    if abs(a_c) >= 1.0:
        return math.inf
    return (gains.g**2 * noise.sigma_z2 + plant.sigma_w2) / (1.0 - a_c**2)


def simulate_loop(
    coeff: "float | np.ndarray", noise: np.ndarray, x0: float = 0.0,
    reset: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run x(t+1) = c_t x(t) + n_t over a (replicas, T) noise block, from x0.

    ``coeff`` is one closed-loop factor for every step (slow fading) or a
    (replicas, T) array of per-step factors (fast fading).  ``reset`` is an
    optional (replicas, T) mask of steps whose factor is 0 instead (the coded
    loop's decoded epochs), where the state restarts from n_t alone.  States
    beyond the divergence guard are clamped and flagged; returns (states,
    diverged-per-replica).
    """
    replicas, horizon = noise.shape
    per_step = not np.isscalar(coeff)
    # stepped time-major, so that every step reads and writes contiguous rows
    coeff_t = coeff.T.copy() if per_step else coeff
    noise_t = noise.T.copy()
    reset_t = None if reset is None else reset.T.copy()
    x = np.full(replicas, float(x0))
    diverged = np.zeros(replicas, dtype=bool)
    for t in range(horizon):
        x = (coeff_t[t] if per_step else coeff_t) * x + noise_t[t]
        if reset_t is not None:
            np.copyto(x, noise_t[t], where=reset_t[t])
        over = np.abs(x) > DIVERGENCE_GUARD
        if over.any():
            diverged |= over
            x = np.clip(x, -DIVERGENCE_GUARD, DIVERGENCE_GUARD)
        noise_t[t] = x  # the state overwrites the noise row it has just used
    return noise_t.T.copy(), diverged
