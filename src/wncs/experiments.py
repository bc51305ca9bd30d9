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
from typing import Iterator, Optional, Sequence

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
    require_magnitude,
    require_positive,
    simulate_loop,
)
from .slow_control import allocate_multi_slow, optimize_single_slow, select_plants, snr_floor
from .slow_control import Infeasible, optimize_identical_actuator, optimize_identical_controller

# substream key vocabulary: kind of recipe, then purpose of the draw
_KIND_TRACE, _KIND_COMPARE, _KIND_MULTI_SLOW, _KIND_MULTI_FAST, _KIND_SELECT = range(5)
_DRAW_Z, _DRAW_W, _DRAW_H, _DRAW_CODED = range(4)

#: replica-steps drawn and simulated at a time, whatever the replica count;
#: a block's rows are this over the horizon
_BLOCK_ELEMENTS = 1 << 19


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
    """One experiment's table: shared x column and named series.

    ``series[name][i]`` is the value at ``x[i]``; a cell with no finite value
    (infeasible design or diverged simulation) holds inf.  ``meta`` carries
    seed, replica count and recipe-specific diagnostics for the sidecar.
    """

    x_name: str
    x: tuple[float, ...]
    series: dict[str, tuple[float, ...]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, ys in self.series.items():
            if len(ys) != len(self.x):
                raise ValueError(f"series {name!r} length {len(ys)} != grid {len(self.x)}")

    @property
    def bounded(self) -> dict[str, tuple[bool, ...]]:
        """Per series, whether each cell holds a finite value."""
        return {name: tuple(map(math.isfinite, ys)) for name, ys in self.series.items()}


def _refuse_clashes(values: Sequence, labels: Sequence[str], what: str) -> None:
    """ValueError naming two entries of ``values`` whose column labels coincide."""
    seen: dict[str, object] = {}
    for value, label in zip(values, labels):
        if label in seen:
            raise ValueError(
                f"{what} {seen[label]!r} and {value!r} share the column label {label!r}"
            )
        seen[label] = value


def _simulated_blocks(
    spec: ExperimentSpec, key: tuple[int, ...], g: float, a_c: float,
    fading: Optional[tuple[float, float]] = None, x0: float = 0.0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The kernel's (states, diverged) for the replicas, one row block at a time.

    The loop is x(t+1) = c_t x(t) + g z(t) + w(t) with c_t = a_c, or with
    c_t = a_c + gk |h_t| when ``fading`` = (gk, sigma_h2) draws a Gaussian
    gain h_t per symbol.  z, w and h come from the substreams keyed
    (seed, *key, purpose).  Consecutive row blocks of a stream equal its
    dense (replicas, horizon) draw, so the block size changes no result.
    """
    rows = max(1, _BLOCK_ELEMENTS // spec.horizon)
    z_rng = substream(spec.seed, *key, _DRAW_Z)
    w_rng = substream(spec.seed, *key, _DRAW_W)
    h_rng = None if fading is None else substream(spec.seed, *key, _DRAW_H)
    for start in range(0, spec.replicas, rows):
        shape = (min(rows, spec.replicas - start), spec.horizon)
        z = z_rng.normal(0.0, math.sqrt(spec.sigma_z2), shape)
        w = w_rng.normal(0.0, math.sqrt(spec.plant.sigma_w2), shape)
        coeff: "float | np.ndarray" = a_c
        if fading is not None:
            product, sigma_h2 = fading
            coeff = a_c + product * np.abs(h_rng.normal(0.0, math.sqrt(sigma_h2), shape))
        yield simulate_loop(coeff, g * z + w, x0)


def _mean_cost(blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> float:
    """Time-average cost over every replica; inf once any replica diverges."""
    per_replica = []
    for states, diverged in blocks:
        if diverged.any():
            return math.inf
        per_replica.append(np.mean(states**2, axis=1))
    return float(np.concatenate(per_replica).mean())


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
    require_magnitude(h, "channel magnitude")
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
    averaged across replicas, transient included.  A state past the
    divergence guard is inf, and so is every running cost of a factor with a
    diverged replica.
    """
    if not math.isfinite(x0):
        raise ValueError(f"initial state must be finite (got {x0!r})")
    labels = [f"ac{a_c:g}" for a_c in a_c_values]
    _refuse_clashes(a_c_values, labels, "closed-loop factors")
    p0 = spec.powers_w[0]
    noise = spec.noise_at(p0)
    t_axis = tuple(float(t) for t in range(1, spec.horizon + 1))
    series: dict[str, tuple[float, ...]] = {}
    gains_used: dict[str, Optional[tuple[float, float]]] = {}
    predicted: dict[str, float] = {}
    for idx, (a_c, label) in enumerate(zip(a_c_values, labels)):
        gains = implied_trace_gains(spec.plant, noise, h, a_c)
        g = gains.g if gains is not None else 0.0
        first, sum_sq, ok = None, np.zeros(spec.horizon), True
        for states, diverged in _simulated_blocks(spec, (_KIND_TRACE, idx), g, a_c, x0=x0):
            first = states[0] if first is None else first
            # rows summed in dense row order: the block size changes no bit
            sum_sq = np.add.reduce(np.concatenate([sum_sq[None], states**2]), axis=0)
            ok = ok and not bool(diverged.any())
        running = np.cumsum(sum_sq / spec.replicas) / np.arange(1, spec.horizon + 1)
        shown = np.where(np.abs(first) < DIVERGENCE_GUARD, first, math.inf)
        series[f"x_{label}"] = tuple(shown.tolist())
        series[f"j_{label}"] = tuple(running.tolist()) if ok else (math.inf,) * spec.horizon
        gains_used[label] = None if gains is None else (gains.k, gains.g)
        if gains is None:
            stable = abs(a_c) < 1.0
            predicted[label] = spec.plant.sigma_w2 / (1.0 - a_c * a_c) if stable else math.inf
        else:
            predicted[label] = predicted_cost_slow(spec.plant, noise, gains, h)
    meta = {
        "seed": spec.seed,
        "replicas": spec.replicas,
        "p0_w": p0,
        "h": h,
        "x0": x0,
        "gains": gains_used,
        "predicted_j_ave": predicted,
    }
    return SweepResult(x_name="t", x=t_axis, series=series, meta=meta)


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
    cost; below the stabilizability threshold (a^2-1)/h^2 both are inf.  Each
    coded scheme is simulated at every grid point regardless (an unstable
    verdict is an inf cell, not an error).
    """
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown coding scheme(s): {unknown}")
    _refuse_clashes(schemes, schemes, "coding schemes")
    floor = snr_floor(spec.plant, h)
    names = ["analog_pred", "analog_sim", *schemes]
    cols: dict[str, list[float]] = {n: [] for n in names}
    feasible_points = 0
    for gi, p0 in enumerate(spec.powers_w):
        noise = spec.noise_at(p0)
        pred, sim = math.inf, math.inf
        if noise.gamma0 >= floor:
            feasible_points += 1
            design = optimize_single_slow(spec.plant, noise, h)
            pred = design.j_ave
            # at a boundary point no pair is realizable: the cost is unbounded in the limit
            if design.gains is not None:
                blocks = _simulated_blocks(spec, (_KIND_COMPARE, gi, 0), design.gains.g, design.a_c)
                sim = _mean_cost(blocks)
        cols["analog_pred"].append(pred)
        cols["analog_sim"].append(sim)
        for si, name in enumerate(schemes):
            rng = substream(spec.seed, _KIND_COMPARE, gi, 1 + si, _DRAW_CODED)
            cost, stable = run_coded_control(
                spec.plant, noise, h, SCHEMES[name],
                horizon=spec.horizon, rng=rng, replicas=spec.replicas,
            )
            cols[name].append(cost if stable else math.inf)
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
    stabilizability floors are inf across all series.
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
    allocations: list[Optional[dict]] = []
    feasible_points = 0

    floor_of = snr_floor if slow else fast_snr_floor
    allocate = allocate_multi_slow if slow else allocate_multi_fast
    floors_total = sum(floor_of(spec.plant, v) for _, v in channels)

    for gi, p0 in enumerate(spec.powers_w):
        noise = spec.noise_at(p0)
        if noise.gamma0 < floors_total:
            for n in names:
                cols[n].append(math.inf)
            allocations.append(None)
            continue
        feasible_points += 1
        alloc, design = allocate(channels, spec.plant, noise)
        row = {"j_total_pred": 0.0, "j_total_sim": 0.0}
        for (pid, ch), gamma_j, gains, j_pred in zip(
            channels, alloc.gamma, design.gains, design.predicted_costs
        ):
            k, g, sim = math.inf, math.inf, math.inf
            # a boundary share has gains only as a limit: nothing to run
            if gains is not None:
                k, g = gains.k, gains.g
                a_c = spec.plant.a + g * ch * k if slow else spec.plant.a
                fading = None if slow else (gains.product, ch)
                sim = _mean_cost(_simulated_blocks(spec, (kind, gi, pid), g, a_c, fading))
            row.update({f"p{pid}_w": gamma_j * spec.sigma_z2, f"k{pid}": k, f"g{pid}": g,
                        f"j{pid}_pred": j_pred, f"j{pid}_sim": sim})
            row["j_total_pred"] += j_pred
            row["j_total_sim"] += sim
        for n in names:
            cols[n].append(row[n])
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
        meta=meta,
    )


def add_shared_gain_series(
    result: SweepResult, spec: ExperimentSpec, channels: Sequence[tuple[int, float]],
    g_common: Optional[float], k_common: Optional[float],
) -> SweepResult:
    """A slow ``run_multi_sweep`` table plus the shared-gain designs' columns.

    sharedG_k<id> holds each controller factor under one actuator factor
    ``g_common``, sharedK_g<id> each actuator factor under one controller
    factor ``k_common``; both add per-plant and total costs.  A factor of None
    adds no columns (with both None, ``result`` is returned as it is), and a
    grid point where its design is infeasible is inf.
    """
    if g_common is None and k_common is None:
        return result
    series = dict(result.series)
    for prefix, gain, factor, optimize in (
        ("sharedG", "k", g_common, optimize_identical_actuator),
        ("sharedK", "g", k_common, optimize_identical_controller),
    ):
        if factor is None:
            continue
        names = [f"{prefix}_{n}{pid}" for pid, _ in channels for n in (gain, "j")]
        rows = []
        for p0 in spec.powers_w:
            try:
                design = optimize(channels, spec.plant, spec.noise_at(p0), factor)
            except Infeasible:
                rows.append(None)
                continue
            pairs = zip(getattr(design, gain), design.predicted_costs)
            rows.append([value for pair in pairs for value in pair] + [design.total_cost])
        for i, name in enumerate([*names, f"{prefix}_j_total"]):
            series[name] = tuple(math.inf if row is None else row[i] for row in rows)
    meta = {**result.meta, "g_common": g_common, "k_common": k_common}
    return SweepResult(result.x_name, result.x, series, meta)


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
    labels = [f"m{m0}_avg_selected" for m0 in m0_values]
    _refuse_clashes(m0_values, labels, "M0 values")
    a = spec.plant.a
    series: dict[str, tuple[float, ...]] = {}
    for mi, (m0, label) in enumerate(zip(m0_values, labels)):
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
        series[label] = tuple(float(c.mean()) for c in counts.T)
    meta = {
        "seed": spec.seed,
        "realizations": realizations,
        "mean_power_gain": mean_power_gain,
        "m0_values": list(m0_values),
    }
    return SweepResult(x_name="p0_w", x=spec.powers_w, series=series, meta=meta)
