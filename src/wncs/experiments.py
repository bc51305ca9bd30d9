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
from .coded import required_success_probability, word_success
from .fast_control import allocate_multi_fast, fast_snr_floor
from .model import (
    GainPair,
    NoisePowers,
    PlantParams,
    gains_overflow,
    mean_cost,
    predicted_cost_slow,
    require_magnitude,
    require_positive,
    sequential_sum,
    step_blocks,
)
from .slow_control import allocate_multi_slow, optimize_single_slow, slow_floor
from .slow_control import snr_floor, summed_floor
from .slow_control import Infeasible, optimize_identical_actuator, optimize_identical_controller

# substream key vocabulary: kind of recipe, then purpose of the draw
_KIND_TRACE, _KIND_COMPARE, _KIND_MULTI_SLOW, _KIND_MULTI_FAST, _KIND_SELECT = range(5)
_DRAW_Z, _DRAW_W, _DRAW_H, _DRAW_CODED = range(4)

#: the longest horizon a run may ask for: a one-row block of it is 2 MiB a stream
MAX_HORIZON = 1 << 18
#: the most replicas a run may ask for: a cell's memory does not grow with
#: them, so only this bound refuses a count that no run could finish
MAX_REPLICAS = 1 << 30
#: cell threads, which run every recipe's simulation cells two at a time: a
#: constant, whatever the replica count, and no option sets it
_DRAW_THREADS = 2
#: the bound on realizations x largest M0 of a selection sweep, which holds
#: one realizations x M0 floor array: at the bound it peaks at 180 MB, with
#: M0 = 1023 as with M0 = 1
MAX_SELECTION_VALUES = 1 << 24
#: realizations whose gains a selection sweep draws and prices at a time
_SELECTION_CHUNK = 1 << 16


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
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be between 1 and {MAX_HORIZON} (got {self.horizon})")
        if not 1 <= self.replicas <= MAX_REPLICAS:
            raise ValueError(f"replicas must be between 1 and {MAX_REPLICAS} (got {self.replicas})")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")

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


def _refuse_clashes(values: Sequence, labels: Sequence[str], what: str) -> None:
    """ValueError naming two entries of ``values`` whose column labels coincide."""
    seen: dict[str, object] = {}
    for value, label in zip(values, labels):
        if label in seen:
            raise ValueError(
                f"{what} {seen[label]!r} and {value!r} share the column label {label!r}"
            )
        seen[label] = value


def _run_cells(cells: dict) -> dict:
    """Each cell's result under its key: a cell ``(fn, *args)`` runs on a cell thread.

    Cells are submitted in the map's order, and the cell threads live for
    this call.  The first cell to raise, in that order, raises here; then the
    cells not yet started never start, and the call returns only once its
    threads have ended.
    """
    # imported here, so that a recipe that runs no cells never loads it
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(_DRAW_THREADS)
    try:
        futures = {key: pool.submit(*cell) for key, cell in cells.items()}
        return {key: future.result() for key, future in futures.items()}
    finally:
        pool.shutdown(cancel_futures=True)


def substream(root_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (root_seed, key...).

    Keyed, not sequential: the same (seed, key) always yields the same stream
    and distinct keys yield statistically independent streams.  Keys must be
    non-negative integers.
    """
    if root_seed < 0 or any(k < 0 for k in key):
        raise ValueError("substream keys must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, key)]))


def rayleigh_gain_samples(
    mean_power_gain: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vector of block gains h = |H|, H complex Gaussian, E[h^2] = mean_power_gain."""
    require_positive(mean_power_gain, "mean power gain")
    return rng.rayleigh(scale=np.sqrt(mean_power_gain / 2.0), size=size)


def _simulated_blocks(
    spec: ExperimentSpec, key: tuple[int, ...], g: float, a_c: float,
    fading: Optional[tuple[float, float]] = None, x0: float = 0.0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The analog loop's ``step_blocks``, filled from its substreams.

    The loop is x(t+1) = c_t x(t) + g z(t) + w(t) with c_t = a_c, or with
    c_t = a_c + gk |h_t| when ``fading`` = (gk, sigma_h2) draws a Gaussian
    gain h_t per symbol.  z, w and h come from the substreams keyed
    (seed, *key, purpose).  Consecutive row blocks of a stream equal its
    dense (replicas, horizon) draw, so the block size changes no result.

    Each stream's block is one ``standard_normal`` call into a replica-major
    (rows, T) array, the kernel's layout, and is scaled there: z s_z g is the
    noise, w s_w is added to it from the spare array, which h then fills with
    the factors a_c + gk |h s_h|.  A ``normal(0, s)`` draw is 0 + s n, the same
    value but for the sign of a zero, so these are the values of per-purpose
    ``normal`` draws.  A generator, so that the substreams are made and every
    draw runs on the thread that takes the blocks.
    """
    z_rng = substream(spec.seed, *key, _DRAW_Z)
    w_rng = substream(spec.seed, *key, _DRAW_W)
    z_std, w_std = math.sqrt(spec.sigma_z2), math.sqrt(spec.plant.sigma_w2)
    if fading is not None:
        product, sigma_h2 = fading
        h_rng, h_std = substream(spec.seed, *key, _DRAW_H), math.sqrt(sigma_h2)

    def fill(noise: np.ndarray, second: np.ndarray, start: int) -> "float | np.ndarray":
        z_rng.standard_normal(out=noise)
        noise *= z_std
        noise *= g
        w_rng.standard_normal(out=second)
        second *= w_std
        noise += second
        if fading is None:
            return a_c
        h_rng.standard_normal(out=second)
        second *= h_std
        np.abs(second, out=second)
        second *= product
        second += a_c
        return second

    noise_std = math.sqrt(g * g * spec.sigma_z2 + spec.plant.sigma_w2)
    yield from step_blocks(spec.replicas, spec.horizon, noise_std, fill, x0)


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
    gap = a_c - plant.a
    # a float ** raises where * gives inf: refuse a factor whose gap overflows
    if not math.isfinite(gap * gap):
        raise ValueError(
            f"closed-loop factor must be finite, and so must (a_c - a)^2 (got {a_c!r})"
        )
    ssr = noise.ssr(plant)
    headroom = (1.0 - a_c * a_c) * noise.gamma0 - gap**2 / h**2
    if headroom <= 0.0:
        return None
    # with no disturbance the SNR is split-independent; any k realizes it
    k = -1.0 if ssr == 0.0 else -math.sqrt(headroom / ssr)
    g = gap / (h * k)
    if not (math.isfinite(k) and math.isfinite(g)):
        raise gains_overflow(k, g, ssr)
    return GainPair(k=k, g=g)


def _trace_sums(
    spec: ExperimentSpec, idx: int, g: float, a_c: float, x0: float
) -> tuple[np.ndarray, np.ndarray]:
    """One trace cell: replica 0's states (inf past the guard) and the running
    cost averaged across replicas, inf at every step once any replica diverges."""
    first, sum_sq = None, np.zeros(spec.horizon)
    for states, diverged in _simulated_blocks(spec, (_KIND_TRACE, idx), g, a_c, x0=x0):
        if first is None:
            first = states[0].copy()
        if diverged.any():
            return first, np.full(spec.horizon, math.inf)
        # squares summed in place, in dense row order after the running sum:
        # the block size changes no bit.  A sum past the largest float is inf
        with np.errstate(over="ignore"):
            np.square(states, out=states)
            states[0] += sum_sq
            np.add.reduce(states, axis=0, out=sum_sq)
    with np.errstate(over="ignore"):
        running = np.cumsum(sum_sq / spec.replicas) / np.arange(1, spec.horizon + 1)
    return first, running


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
    diverged replica.  The calling thread finds every factor's gains; then
    the factors' cells run two at a time on the cell threads.
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
    all_gains = [implied_trace_gains(spec.plant, noise, h, a_c) for a_c in a_c_values]
    sums = _run_cells({idx: (_trace_sums, spec, idx, 0.0 if gains is None else gains.g, a_c, x0)
                       for idx, (a_c, gains) in enumerate(zip(a_c_values, all_gains))})
    for idx, (a_c, label, gains) in enumerate(zip(a_c_values, labels, all_gains)):
        first, running = sums[idx]
        series[f"x_{label}"] = tuple(first.tolist())
        series[f"j_{label}"] = tuple(running.tolist())
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
    cost; below the stabilizability threshold (a^2-1)/h^2 both are inf.  A
    word success at or below the rate that the dead-beat recursion requires
    makes a coded loop mean-square unstable (Sinopoli et al., IEEE TAC 2004):
    that cell is inf and simulates nothing.  Elsewhere it is simulated, and
    an unstable run is inf too (an unstable verdict is an inf cell, not an
    error).  The sidecar gets each scheme's exact word success per grid point
    and the rate its loop requires.  The calling thread designs every grid
    point and makes every exact verdict; then the cells run two at a time on
    the cell threads, and the first cell to raise, in grid order, raises here.
    """
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown coding scheme(s): {unknown}")
    _refuse_clashes(schemes, schemes, "coding schemes")
    floor = snr_floor(spec.plant, h)
    required = {name: required_success_probability(spec.plant, SCHEMES[name]) for name in schemes}
    names = ["analog_pred", "analog_sim", *schemes]
    cols = {n: [math.inf] * len(spec.powers_w) for n in names}
    word_rates: dict[str, list[float]] = {name: [] for name in schemes}
    feasible_points = 0
    # each cell keyed by the (column, grid index) its cost fills; a cell
    # that does not run leaves its inf
    cells: dict[tuple[str, int], tuple] = {}
    for gi, p0 in enumerate(spec.powers_w):
        noise = spec.noise_at(p0)
        if noise.gamma0 >= floor:
            feasible_points += 1
            design = optimize_single_slow(spec.plant, noise, h)
            cols["analog_pred"][gi] = design.j_ave
            # at a boundary point no pair is realizable: the cost is unbounded in the limit
            if design.gains is not None:
                blocks = _simulated_blocks(spec, (_KIND_COMPARE, gi, 0), design.gains.g, design.a_c)
                cells["analog_sim", gi] = (mean_cost, blocks, spec.replicas)
        for si, name in enumerate(schemes):
            success = word_success(SCHEMES[name], noise, h)
            word_rates[name].append(success)
            if success > required[name]:
                rng = substream(spec.seed, _KIND_COMPARE, gi, 1 + si, _DRAW_CODED)
                cells[name, gi] = (run_coded_control, spec.plant, noise, h, SCHEMES[name],
                                   spec.horizon, rng, spec.replicas)
    # each cell has its own substreams, so the threads change no result
    for (name, gi), cost in _run_cells(cells).items():
        cols[name][gi] = cost
    meta = {
        "seed": spec.seed,
        "replicas": spec.replicas,
        "h": h,
        "snr_floor": floor,
        "threshold_p0_w": floor * spec.sigma_z2,
        "feasible_points": feasible_points,
        "coded_word_success": word_rates,
        "coded_required_success": required,
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
    ids = [pid for pid, _ in channels]
    if any(pid < 0 for pid in ids):
        raise ValueError(f"plant ids must be non-negative (got {ids})")
    _refuse_clashes(ids, [f"p{pid}_w" for pid in ids], "plant ids")
    slow = regime == "slow"
    kind = _KIND_MULTI_SLOW if slow else _KIND_MULTI_FAST
    names: list[str] = []
    for pid in ids:
        names += [f"p{pid}_w", f"k{pid}", f"g{pid}", f"j{pid}_pred", f"j{pid}_sim"]
    names += ["j_total_pred", "j_total_sim"]
    cols = {n: [math.inf] * len(spec.powers_w) for n in names}
    allocations: list[Optional[dict]] = []

    floor_of = snr_floor if slow else fast_snr_floor
    allocate = allocate_multi_slow if slow else allocate_multi_fast
    # the allocator's floors, each checked, and its sum: a point past the gate is allocated
    floors_total = summed_floor([floor_of(spec.plant, v) for _, v in channels])

    # each cell keyed by the (column, grid index) its cost fills; an
    # infeasible point, or a share with nothing to run, leaves its inf
    cells: dict[tuple[str, int], tuple] = {}
    for gi, p0 in enumerate(spec.powers_w):
        noise = spec.noise_at(p0)
        if noise.gamma0 < floors_total:
            allocations.append(None)
            continue
        alloc, design = allocate(channels, spec.plant, noise)
        allocations.append({"gamma": list(alloc.gamma), "multiplier": alloc.multiplier,
                            "plant_ids": list(alloc.plant_ids)})
        cols["j_total_pred"][gi] = design.total_cost
        for (pid, ch), gamma_j, gains, j_pred in zip(channels, alloc.gamma, design.gains,
                                                     design.predicted_costs):
            cols[f"p{pid}_w"][gi] = gamma_j * spec.sigma_z2
            cols[f"j{pid}_pred"][gi] = j_pred
            # a boundary share has gains only as a limit: nothing to run
            if gains is None:
                continue
            cols[f"k{pid}"][gi], cols[f"g{pid}"][gi] = gains.k, gains.g
            a_c = spec.plant.a + gains.g * ch * gains.k if slow else spec.plant.a
            fading = None if slow else (gains.product, ch)
            blocks = _simulated_blocks(spec, (kind, gi, pid), gains.g, a_c, fading)
            cells[f"j{pid}_sim", gi] = (mean_cost, blocks, spec.replicas)
    for (name, gi), cost in _run_cells(cells).items():
        cols[name][gi] = cost
    # each feasible point's total, summed in plant order
    for gi, alloc in enumerate(allocations):
        if alloc is not None:
            cols["j_total_sim"][gi] = sequential_sum(cols[f"j{pid}_sim"][gi] for pid in ids)
    meta = {
        "seed": spec.seed,
        "replicas": spec.replicas,
        "regime": regime,
        "channels": [list(c) for c in channels],
        "floors_total": floors_total,
        "threshold_p0_w": floors_total * spec.sigma_z2,
        "feasible_points": sum(alloc is not None for alloc in allocations),
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
    largest = max(m0_values)
    if realizations * largest > MAX_SELECTION_VALUES:
        raise ValueError(
            f"realizations x largest M0 = {realizations} x {largest} exceeds the "
            f"selection sweep's bound of {MAX_SELECTION_VALUES} values held at once"
        )
    labels = [f"m{m0}_avg_selected" for m0 in m0_values]
    _refuse_clashes(m0_values, labels, "M0 values")
    budgets = [p0 / spec.sigma_z2 for p0 in spec.powers_w]
    series: dict[str, tuple[float, ...]] = {}
    for mi, (m0, label) in enumerate(zip(m0_values, labels)):
        # plant j's floors fill column j, from chunks of its gains that equal
        # its dense draw; sorted, a row's prefix sums are the least budgets
        # that admit its 1, 2, ... cheapest plants
        floors = np.empty((realizations, m0))
        with np.errstate(divide="ignore", over="ignore"):
            for j in range(m0):
                rng = substream(spec.seed, _KIND_SELECT, mi, j, _DRAW_H)
                for start in range(0, realizations, _SELECTION_CHUNK):
                    h = rayleigh_gain_samples(
                        mean_power_gain, rng, min(_SELECTION_CHUNK, realizations - start))
                    floors[start : start + len(h), j] = slow_floor(spec.plant.a, h)
        if not np.isfinite(floors).all():
            raise ValueError(
                f"mean power gain {mean_power_gain!r} is too small: a drawn channel's "
                "stabilizability floor (a^2-1)/h^2 is not finite"
            )
        floors.sort(axis=1)
        cumulative = np.cumsum(floors, axis=1, out=floors)
        series[label] = tuple(np.count_nonzero(cumulative <= b) / realizations for b in budgets)
    meta = {
        "seed": spec.seed,
        "realizations": realizations,
        "mean_power_gain": mean_power_gain,
        "m0_values": list(m0_values),
        # a grid point where some M0 admits a plant in some realization
        "feasible_points": sum(any(row) for row in zip(*series.values())),
    }
    return SweepResult(x_name="p0_w", x=spec.powers_w, series=series, meta=meta)
