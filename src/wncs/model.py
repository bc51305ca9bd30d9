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
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: trajectories whose magnitude passes this guard are truncated and reported
#: as diverged instead of polluting averages with overflow
DIVERGENCE_GUARD = 1e12
#: replica-steps that every simulation cell, analog or coded, draws and steps
#: at a time, whatever the replica count
BLOCK_ELEMENTS = 1 << 17
#: columns of a block that ``simulate_loop`` gathers and steps at a time
_WINDOW = 32


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


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: builtin sum()'s float bits before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 sum of ``values``, replayed bit for bit on plain floats.

    np.add.reduce takes the pairwise sum (Higham, 1993): fewer than 8 terms
    in sequence, up to 128 in 8 accumulators over strides of 8 and the rest
    in sequence, more split in two at a multiple of 8.  It adds that to an
    initial 0.0, which only turns a -0.0 sum into 0.0.  On a few terms this
    runs several times faster than building an array to sum.
    """
    n = len(values)
    if n < 8:
        return sequential_sum(values)
    if n <= 128:
        whole = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for i in range(8, whole, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for i in range(whole, n):
            total += values[i]
        return total
    half = n // 2 - n // 2 % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


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
        if not math.isfinite(self.gamma0):
            raise ValueError(f"SNR budget p0/sigma_z2 = {self.p0!r}/{self.sigma_z2!r} overflows")

    @property
    def gamma0(self) -> float:
        return self.p0 / self.sigma_z2

    def ssr(self, plant: PlantParams) -> float:
        ratio = plant.sigma_w2 / self.sigma_z2
        if not math.isfinite(ratio):
            raise ValueError(f"sigma_w2/sigma_z2 = {plant.sigma_w2!r}/{self.sigma_z2!r} overflows")
        return ratio


class GainPair(NamedTuple):
    """Controller factor ``k`` and actuator factor ``g``.

    Designs produced by the optimizers in this package always satisfy g > 0
    and k < 0 (negative feedback); the pair itself is just a value container.
    """

    k: float
    g: float

    @property
    def product(self) -> float:
        return self.g * self.k


def gains_overflow(k: float, g: float, ssr: float) -> ValueError:
    """The refusal of a design whose k or g is not finite, naming sigma_w2/sigma_z2."""
    return ValueError(f"the design's gains k = {k!r}, g = {g!r} are not finite: the disturbance-"
                      f"to-noise ratio sigma_w2/sigma_z2 = {ssr!r} is out of range for the budget")


def require_ssr(ssr: float) -> float:
    """``ssr`` itself when it is not 0; otherwise the ValueError of a design that divides by it."""
    if ssr == 0.0:
        raise ValueError(
            f"the disturbance-to-noise ratio sigma_w2/sigma_z2 is {ssr!r}, and the design divides "
            "by it: give a disturbance power whose ratio to the channel noise power is > 0"
        )
    return ssr


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


def divergence_guard(noise_std: float) -> float:
    """DIVERGENCE_GUARD times a loop's per-step noise std, if above 1: states scale with it."""
    return min(DIVERGENCE_GUARD * max(1.0, noise_std), float(np.finfo(float).max))


def block_rows(horizon: int) -> int:
    """Rows of every simulation cell's (rows, T) blocks: ``BLOCK_ELEMENTS`` over T, at least 1."""
    return max(1, BLOCK_ELEMENTS // horizon)


def _step_slab(
    steps: list, scratch: np.ndarray,
    guard: "float | None" = None, diverged: "np.ndarray | None" = None,
) -> None:
    """Step x(t+1) = c_t x(t) + n_t over (previous state, row, factor) triples of a slab.

    Each row holds its step's noise, which the new state overwrites; the
    factor is a scalar or a row.  With a ``guard``, every state past it, or
    NaN, is flagged in ``diverged`` and clamped as soon as it is made.
    """
    for prev, row, factor in steps:
        np.multiply(prev, factor, scratch)
        np.add(row, scratch, row)
        # the squares sum to at least the guard's square whenever a state
        # passes it (and, harmlessly, sometimes when none does), and to NaN
        # whenever a state is NaN
        if guard is not None and not row @ row < guard * guard:
            diverged |= ~(np.abs(row, out=scratch) <= guard)
            np.clip(row, -guard, guard, out=row)


def simulate_loop(
    coeff: "float | np.ndarray", noise: np.ndarray, guard: float, x0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Run x(t+1) = c_t x(t) + n_t over a replica-major (replicas, T) noise block, from x0.

    ``coeff`` is one closed-loop factor for every step (slow fading) or a
    (replicas, T) array of per-step factors (fast fading, or the coded loop's
    a, and 0 where a decoded epoch restarts the state from n_t).  The block
    is stepped ``_WINDOW`` columns at a time: each window's noise and factors
    are gathered into small time-major slabs, whose rows are contiguous, and
    the states are scattered back over the noise they used.  A window whose
    states all stay within ``guard`` needs no clamp; any other window is
    stepped again from the block, with every state past the guard clamped
    and flagged as it is made.  Either way the arithmetic is that of one step
    per column.  Returns (``noise``, now the states, and diverged-per-replica).
    """
    replicas, horizon = noise.shape
    per_step = not np.isscalar(coeff)
    window = min(_WINDOW, horizon)
    slab = np.empty((window + 1, replicas))
    slab[0] = x0
    factors = np.empty((window, replicas)) if per_step else repeat(coeff)
    steps = list(zip(slab[:-1], slab[1:], factors))
    scratch = np.empty(replicas)
    diverged = np.zeros(replicas, dtype=bool)
    # a state near the float limit overflows the sum of squares to inf, which
    # passes even a guard whose square is inf: the clamp answers it.  A state
    # past the float limit times a zero factor is NaN, and its window is
    # stepped again
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon, window):
            cols = slice(start, min(start + window, horizon))
            count = cols.stop - start
            states = slab[1 : count + 1]
            np.copyto(states, noise[:, cols].T)
            if per_step:
                np.copyto(factors[:count], coeff[:, cols].T)
            _step_slab(steps[:count], scratch)
            # NaN fails the check too, and its window is stepped again
            if not (states.max() <= guard and states.min() >= -guard):
                np.copyto(states, noise[:, cols].T)
                _step_slab(steps[:count], scratch, guard, diverged)
            np.copyto(noise[:, cols], states.T)
            slab[0] = states[-1]
    return noise, diverged


def mean_square_per_replica(states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Time average of x(t)^2 for each replica of replica-major (replicas, T) states, into out.

    The states are squared in place, and each replica's squares are summed as
    one contiguous row; a mean past the largest float is inf.
    """
    with np.errstate(over="ignore"):
        return np.mean(np.square(states, out=states), axis=1, out=out)


def mean_cost(blocks: Iterable[tuple[np.ndarray, np.ndarray]], replicas: int) -> float:
    """Time-average cost over every replica of (states, diverged) blocks; inf once any diverges.

    The blocks hold ``replicas`` rows in all, and each block's per-replica
    means are written into one (replicas,) array.
    """
    per_replica, start = np.empty(replicas), 0
    for states, diverged in blocks:
        if diverged.any():
            return math.inf
        mean_square_per_replica(states, per_replica[start : start + len(states)])
        start += len(states)
    with np.errstate(over="ignore"):  # a cost past the largest float is inf
        return float(per_replica.mean())
