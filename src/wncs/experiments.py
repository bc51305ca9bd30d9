"""Experiment recipes: traces, baselines comparison, sweeps, plant selection.

Each runner composes the optimizers, channel samplers and simulators into one
figure-shaped result table (SweepResult).  Everything is deterministic under
the experiment's root seed: every random draw comes from a substream keyed by
(recipe kind, grid index, plant id, purpose), so enlarging the power grid or
adding a plant never perturbs the draws of existing series, and reruns are
bit-identical.

All powers are linear watts in here; decibel conversions live at the CLI
boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coded import SCHEMES, run_coded_control
from .fading import rayleigh_gain_samples, substream
from .fast_control import allocate_multi_fast, fast_snr_floor, optimize_single_fast
from .model import (
    DIVERGENCE_GUARD,
    GainPair,
    NoisePowers,
    PlantParams,
    predicted_cost_slow,
    require_positive,
)
from .slow_control import allocate_multi_slow, optimize_single_slow, select_plants, snr_floor

# substream key vocabulary: kind of recipe, then purpose of the draw
_KIND_TRACE, _KIND_COMPARE, _KIND_MULTI_SLOW, _KIND_MULTI_FAST, _KIND_SELECT = range(5)
_DRAW_Z, _DRAW_W, _DRAW_H, _DRAW_CODED = range(4)


@dataclass(frozen=True)
class ExperimentSpec:
    """Shared experiment core: plant, noise floor, power grid, horizon, seed."""

    plant: PlantParams
    sigma_z2: float
    powers_w: tuple[float, ...]
    horizon: int = 500
    replicas: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self.sigma_z2, "channel noise power")
        if not self.powers_w:
            raise ValueError("power grid is empty")
        for p in self.powers_w:
            require_positive(p, "grid power (watts)")
        if any(b <= a for a, b in zip(self.powers_w, self.powers_w[1:])):
            raise ValueError("power grid must be strictly increasing")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1 (got {self.horizon})")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1 (got {self.replicas})")

    def noise_at(self, p0: float) -> NoisePowers:
        return NoisePowers(sigma_z2=self.sigma_z2, p0=p0)


@dataclass(frozen=True)
class SweepResult:
    """One experiment's table: shared x column, named series, bounded flags.

    ``series[name][i]`` is the value at ``x[i]``; ``bounded[name][i]`` False
    marks cells with no finite value (infeasible design or diverged
    simulation) -- their numeric entry is a placeholder and serializers must
    render the INF token instead.  ``meta`` carries seed, replica count and
    recipe-specific diagnostics for the sidecar.
    """

    x_name: str
    x: tuple[float, ...]
    series: dict[str, tuple[float, ...]]
    bounded: dict[str, tuple[bool, ...]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, ys in self.series.items():
            if len(ys) != len(self.x):
                raise ValueError(f"series {name!r} length {len(ys)} != grid {len(self.x)}")
            if len(self.bounded[name]) != len(self.x):
                raise ValueError(f"bounded flags for {name!r} do not match the grid")


def _simulate_loop(
    coeff: "float | np.ndarray",
    noise: np.ndarray,
    x0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Run x(t+1) = coeff_t * x(t) + noise_t over a (replicas, T) noise block.

    ``coeff`` is a scalar closed-loop factor (slow fading) or a (replicas, T)
    per-symbol factor (fast fading).  States beyond the divergence guard are
    clamped and flagged; returns (states, diverged-per-replica).
    """
    replicas, horizon = noise.shape
    per_symbol = not np.isscalar(coeff)
    x = np.full(replicas, float(x0))
    states = np.empty((replicas, horizon))
    diverged = np.zeros(replicas, dtype=bool)
    for t in range(horizon):
        c = coeff[:, t] if per_symbol else coeff
        x = c * x + noise[:, t]
        over = np.abs(x) > DIVERGENCE_GUARD
        if over.any():
            diverged |= over
            x = np.clip(x, -DIVERGENCE_GUARD, DIVERGENCE_GUARD)
        states[:, t] = x
    return states, diverged


def _window_cost(states: np.ndarray, burn_in: int = 0) -> float:
    return float(np.mean(states[:, burn_in:] ** 2, axis=1).mean())


# ---------------------------------------------------------------------------
# state traces at fixed closed-loop factors
# ---------------------------------------------------------------------------


def implied_trace_gains(
    plant: PlantParams, noise: NoisePowers, h: float, a_c: float
) -> Optional[GainPair]:
    """Budget-saturating (k, g) realizing a requested closed-loop factor.

    Fixing a_c pins the product g*k = (a_c - A)/h; spending the whole budget
    then fixes the split.  Returns None when a_c is unreachable within the
    budget (all |a_c| >= 1 in particular), in which case the trace falls back
    to the bare x(t+1) = a_c x(t) + w(t) recursion.
    """
    require_positive(h, "channel magnitude")
    if not math.isfinite(a_c):
        raise ValueError(f"closed-loop factor must be finite (got {a_c!r})")
    ssr = noise.ssr(plant)
    headroom = (1.0 - a_c * a_c) * noise.gamma0 - (a_c - plant.a) ** 2 / h**2
    if headroom <= 0.0:
        return None
    # with no disturbance the SNR is split-independent; any k realizes it
    k = -1.0 if ssr == 0.0 else -math.sqrt(headroom / ssr)
    return GainPair(k=k, g=(a_c - plant.a) / (h * k))


def run_trace(
    spec: ExperimentSpec,
    a_c_values: Sequence[float],
    h: float,
    x0: float = 5.0,
) -> SweepResult:
    """State and running-cost series per requested closed-loop factor.

    For each a_c the loop runs with budget-saturating implied gains at
    spec.powers_w[0] (unreachable a_c fall back to the bare recursion).  The
    x series shows replica 0's trajectory; the j series is the running cost
    averaged across replicas, transient included.
    """
    if not math.isfinite(x0):
        raise ValueError(f"initial state must be finite (got {x0!r})")
    p0 = spec.powers_w[0]
    noise = spec.noise_at(p0)
    t_axis = tuple(float(t) for t in range(1, spec.horizon + 1))
    series: dict[str, tuple[float, ...]] = {}
    bounded: dict[str, tuple[bool, ...]] = {}
    gains_used: dict[str, Optional[tuple[float, float]]] = {}
    predicted: dict[str, Optional[float]] = {}
    for idx, a_c in enumerate(a_c_values):
        gains = implied_trace_gains(spec.plant, noise, h, a_c)
        z = substream(spec.seed, _KIND_TRACE, idx, _DRAW_Z).normal(
            0.0, math.sqrt(spec.sigma_z2), (spec.replicas, spec.horizon)
        )
        w = substream(spec.seed, _KIND_TRACE, idx, _DRAW_W).normal(
            0.0, math.sqrt(spec.plant.sigma_w2), (spec.replicas, spec.horizon)
        )
        g = gains.g if gains is not None else 0.0
        states, diverged = _simulate_loop(a_c, g * z + w, x0)
        label = f"ac{a_c:g}"
        mean_sq = np.mean(states**2, axis=0)
        running = np.cumsum(mean_sq) / np.arange(1, spec.horizon + 1)
        ok = not bool(diverged.any())
        series[f"x_{label}"] = tuple(map(float, states[0]))
        bounded[f"x_{label}"] = tuple([not bool(np.abs(s) >= DIVERGENCE_GUARD) for s in states[0]])
        series[f"j_{label}"] = tuple(map(float, running))
        bounded[f"j_{label}"] = tuple([ok] * spec.horizon)
        gains_used[label] = None if gains is None else (gains.k, gains.g)
        if gains is None:
            predicted[label] = None if abs(a_c) >= 1.0 else spec.plant.sigma_w2 / (1.0 - a_c * a_c)
        else:
            j = predicted_cost_slow(spec.plant, noise, gains, h)
            predicted[label] = j if math.isfinite(j) else None
    meta = {
        "seed": spec.seed,
        "replicas": spec.replicas,
        "p0_w": p0,
        "h": h,
        "x0": x0,
        "gains": gains_used,
        "predicted_j_ave": predicted,
    }
    return SweepResult(x_name="t", x=t_axis, series=series, bounded=bounded, meta=meta)


# ---------------------------------------------------------------------------
# single plant: analog loop vs coded baselines over a power grid
# ---------------------------------------------------------------------------


def run_single_compare(
    spec: ExperimentSpec,
    h: float,
    schemes: Sequence[str] = tuple(SCHEMES),
) -> SweepResult:
    """Analog-optimal and coded-baseline costs over the power grid.

    The analog series carry the closed-form prediction and the simulated
    cost; below the stabilizability threshold (a^2-1)/h^2 both are flagged
    unbounded.  Each coded scheme is simulated at every grid point regardless
    (divergence shows up as an unbounded flag, not an error).
    """
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown coding scheme(s): {unknown}")
    floor = snr_floor(spec.plant, h)
    names = ["analog_pred", "analog_sim", *schemes]
    cols: dict[str, list[float]] = {n: [] for n in names}
    flags: dict[str, list[bool]] = {n: [] for n in names}
    feasible_points = 0
    for gi, p0 in enumerate(spec.powers_w):
        noise = spec.noise_at(p0)
        if noise.gamma0 >= floor:
            feasible_points += 1
            design = optimize_single_slow(spec.plant, noise, h)
            cols["analog_pred"].append(design.j_ave)
            flags["analog_pred"].append(math.isfinite(design.j_ave))
            if design.gains is None:
                # boundary point: no realizable pair, cost unbounded in the limit
                cols["analog_sim"].append(math.inf)
                flags["analog_sim"].append(False)
            else:
                z = substream(spec.seed, _KIND_COMPARE, gi, 0, _DRAW_Z).normal(
                    0.0, math.sqrt(spec.sigma_z2), (spec.replicas, spec.horizon)
                )
                w = substream(spec.seed, _KIND_COMPARE, gi, 0, _DRAW_W).normal(
                    0.0, math.sqrt(spec.plant.sigma_w2), (spec.replicas, spec.horizon)
                )
                states, diverged = _simulate_loop(design.a_c, design.gains.g * z + w, 0.0)
                cols["analog_sim"].append(_window_cost(states))
                flags["analog_sim"].append(not bool(diverged.any()))
        else:
            cols["analog_pred"].append(math.inf)
            flags["analog_pred"].append(False)
            cols["analog_sim"].append(math.inf)
            flags["analog_sim"].append(False)
        for si, name in enumerate(schemes):
            rng = substream(spec.seed, _KIND_COMPARE, gi, 1 + si, _DRAW_CODED)
            report = run_coded_control(
                spec.plant, noise, h, SCHEMES[name],
                horizon=spec.horizon, rng=rng, replicas=spec.replicas,
            )
            cols[name].append(report.j_t)
            flags[name].append(report.per_plant[0].stable)
    meta = {
        "seed": spec.seed,
        "replicas": spec.replicas,
        "h": h,
        "snr_floor": floor,
        "threshold_p0_w": floor * spec.sigma_z2,
        "feasible_points": feasible_points,
    }
    return SweepResult(
        x_name="p0_w",
        x=spec.powers_w,
        series={n: tuple(v) for n, v in cols.items()},
        bounded={n: tuple(v) for n, v in flags.items()},
        meta=meta,
    )


# ---------------------------------------------------------------------------
# multi plant: allocation, gains and costs over a power grid
# ---------------------------------------------------------------------------


def run_multi_sweep(
    spec: ExperimentSpec,
    channels: Sequence[tuple[int, float]],
    regime: str,
) -> SweepResult:
    """Per-plant allocated power, gains and costs over the power grid.

    ``channels`` is (plant id, |H|) for regime "slow" or (plant id, sigma_h2)
    for regime "fast".  Grid points whose budget cannot cover the summed
    stabilizability floors are flagged unbounded across all series.
    """
    if regime not in ("slow", "fast"):
        raise ValueError(f"regime must be 'slow' or 'fast' (got {regime!r})")
    if not channels:
        raise ValueError("need at least one (plant id, channel) pair")
    slow = regime == "slow"
    kind = _KIND_MULTI_SLOW if slow else _KIND_MULTI_FAST
    ids = [pid for pid, _ in channels]
    names: list[str] = []
    for pid in ids:
        names += [f"p{pid}_w", f"k{pid}", f"g{pid}", f"j{pid}_pred", f"j{pid}_sim"]
    names += ["j_total_pred", "j_total_sim"]
    cols: dict[str, list[float]] = {n: [] for n in names}
    flags: dict[str, list[bool]] = {n: [] for n in names}
    allocations: list[Optional[dict]] = []
    feasible_points = 0

    def floor_of(value: float) -> float:
        if slow:
            return snr_floor(spec.plant, value)
        return fast_snr_floor(spec.plant, value)

    floors_total = sum(floor_of(v) for _, v in channels)

    def push(name: str, value: float, ok: bool) -> None:
        cols[name].append(value)
        flags[name].append(ok)

    for gi, p0 in enumerate(spec.powers_w):
        noise = spec.noise_at(p0)
        if noise.gamma0 < floors_total:
            for n in names:
                push(n, math.inf, False)
            allocations.append(None)
            continue
        feasible_points += 1
        if slow:
            alloc, design = allocate_multi_slow(channels, spec.plant, noise)
        else:
            alloc, design = allocate_multi_fast(channels, spec.plant, noise)
        total_pred = 0.0
        total_sim = 0.0
        total_ok = True
        for j, (pid, ch) in enumerate(channels):
            gamma_j = alloc.gamma[j]
            gains = design.gains[j]
            push(f"p{pid}_w", gamma_j * spec.sigma_z2, True)
            j_pred = design.predicted_costs[j]
            push(f"j{pid}_pred", j_pred, math.isfinite(j_pred))
            if gains is None:
                # boundary share: gains exist only as a limit, nothing to run
                push(f"k{pid}", math.inf, False)
                push(f"g{pid}", math.inf, False)
                push(f"j{pid}_sim", math.inf, False)
                total_ok = False
                total_pred += j_pred
                continue
            push(f"k{pid}", gains.k, True)
            push(f"g{pid}", gains.g, True)
            z = substream(spec.seed, kind, gi, pid, _DRAW_Z).normal(
                0.0, math.sqrt(spec.sigma_z2), (spec.replicas, spec.horizon)
            )
            w = substream(spec.seed, kind, gi, pid, _DRAW_W).normal(
                0.0, math.sqrt(spec.plant.sigma_w2), (spec.replicas, spec.horizon)
            )
            if slow:
                coeff: "float | np.ndarray" = spec.plant.a + gains.g * ch * gains.k
            else:
                h_t = substream(spec.seed, kind, gi, pid, _DRAW_H).normal(
                    0.0, math.sqrt(ch), (spec.replicas, spec.horizon)
                )
                coeff = spec.plant.a + gains.product * np.abs(h_t)
            states, diverged = _simulate_loop(coeff, gains.g * z + w, 0.0)
            sim = _window_cost(states)
            sim_ok = not bool(diverged.any())
            push(f"j{pid}_sim", sim, sim_ok)
            total_pred += j_pred
            total_sim += sim
            total_ok = total_ok and sim_ok
        push("j_total_pred", total_pred, math.isfinite(total_pred))
        push("j_total_sim", total_sim if total_ok else math.inf, total_ok)
        allocations.append(
            {
                "gamma": list(alloc.gamma),
                "multiplier": alloc.multiplier,
                "plant_ids": list(alloc.plant_ids),
            }
        )
    meta = {
        "seed": spec.seed,
        "replicas": spec.replicas,
        "regime": regime,
        "channels": [list(c) for c in channels],
        "floors_total": floors_total,
        "threshold_p0_w": floors_total * spec.sigma_z2,
        "feasible_points": feasible_points,
        "allocations": allocations,
    }
    return SweepResult(
        x_name="p0_w",
        x=spec.powers_w,
        series={n: tuple(v) for n, v in cols.items()},
        bounded={n: tuple(v) for n, v in flags.items()},
        meta=meta,
    )


# ---------------------------------------------------------------------------
# average number of plants selected under Rayleigh block fading
# ---------------------------------------------------------------------------


def run_selection_sweep(
    spec: ExperimentSpec,
    m0_values: Sequence[int] = (2, 5, 10),
    mean_power_gain: float = 1e-4,
    realizations: int = 10000,
) -> SweepResult:
    """Average count of plants supportable by the budget, per M0, per power.

    Channel draws are keyed per (M0, plant) and shared across the whole power
    grid, so each realization's count is non-decreasing in the budget and the
    average inherits that monotonicity exactly.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1 (got {realizations})")
    if any(m < 1 for m in m0_values):
        raise ValueError("every M0 must be >= 1")
    a = spec.plant.a
    series: dict[str, tuple[float, ...]] = {}
    bounded: dict[str, tuple[bool, ...]] = {}
    for mi, m0 in enumerate(m0_values):
        gains = np.stack(
            [
                rayleigh_gain_samples(
                    mean_power_gain,
                    substream(spec.seed, _KIND_SELECT, mi, j, _DRAW_H),
                    realizations,
                )
                for j in range(m0)
            ],
            axis=1,
        )
        budgets = [p0 / spec.sigma_z2 for p0 in spec.powers_w]
        _, counts = select_plants(np.arange(m0), (a * a - 1.0) / gains**2, budgets)
        averages = [float(c.mean()) for c in counts.T]
        series[f"m{m0}_avg_selected"] = tuple(averages)
        bounded[f"m{m0}_avg_selected"] = tuple([True] * len(spec.powers_w))
    meta = {
        "seed": spec.seed,
        "realizations": realizations,
        "mean_power_gain": mean_power_gain,
        "m0_values": list(m0_values),
    }
    return SweepResult(
        x_name="p0_w", x=spec.powers_w, series=series, bounded=bounded, meta=meta
    )
