"""Experiment recipes: traces, comparisons, allocation sweeps, selection."""
import concurrent.futures
import itertools
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wncs import experiments, model
from wncs.coded import SCHEMES, CodingScheme, required_success_probability, word_success
from wncs.experiments import (
    ExperimentSpec,
    SweepResult,
    implied_trace_gains,
    run_multi_sweep,
    run_selection_sweep,
    run_single_compare,
    run_trace,
    rayleigh_gain_samples,
    substream,
)
from wncs.model import DIVERGENCE_GUARD, NoisePowers, PlantParams
from wncs.fast_control import optimize_single_fast
from wncs.slow_control import optimize_single_slow

PLANT = PlantParams(a=1.5, sigma_w2=0.1)


def make_spec(**kw):
    base = dict(
        plant=PLANT, sigma_z2=1e-7, powers_w=(0.1,), horizon=200, replicas=100, seed=0
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation_and_noise_at():
    spec = make_spec()
    noise = spec.noise_at(0.2)
    assert isinstance(noise, NoisePowers)
    assert noise.p0 == pytest.approx(0.2)
    assert noise.sigma_z2 == pytest.approx(1e-7)
    with pytest.raises(ValueError):
        make_spec(sigma_z2=0.0)
    with pytest.raises(ValueError):
        make_spec(powers_w=())


def test_implied_trace_gains_reference_point():
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    gains = implied_trace_gains(PLANT, noise, 0.01, a_c=0.9)
    assert gains.k == pytest.approx(-0.431740662898458, rel=1e-12)
    assert gains.g == pytest.approx(138.97231638362382, rel=1e-12)
    # realizes the requested closed loop and spends the whole budget
    assert PLANT.a + gains.g * 0.01 * gains.k == pytest.approx(0.9, abs=1e-12)
    snr = gains.k**2 * (gains.g**2 + noise.ssr(PLANT)) / (1.0 - 0.81)
    assert snr == pytest.approx(noise.gamma0, rel=1e-9)


def test_implied_trace_gains_unreachable_factor():
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    assert implied_trace_gains(PLANT, noise, 0.01, a_c=1.01) is None
    # reachable factor under a starving budget is also None
    poor = NoisePowers(sigma_z2=1e-7, p0=1e-6)
    assert implied_trace_gains(PLANT, poor, 0.01, a_c=0.1) is None


@pytest.mark.parametrize(
    "design, sigma_w2",
    [
        (lambda plant, noise: optimize_single_slow(plant, noise, 0.01), 1e-320),
        (lambda plant, noise: optimize_single_fast(plant, noise, 1e-4), 1e-320),
        (lambda plant, noise: implied_trace_gains(plant, noise, 0.01, a_c=0.6), 1e-320),
        (lambda plant, noise: optimize_single_slow(plant, noise, 0.01), 1e300),
    ],
    ids=["slow", "fast", "trace", "slow-huge"],
)
def test_a_design_whose_gains_overflow_is_refused_by_name(design, sigma_w2):
    # sigma_w2/sigma_z2 is subnormal, so k overflows, or so large that the
    # slow design's g does: refused, not an infinite gain and a nan cost
    with pytest.raises(ValueError, match=r"gains k = .* are not finite: .* sigma_w2/sigma_z2"):
        design(PlantParams(a=1.5, sigma_w2=sigma_w2), NoisePowers(sigma_z2=1e-7, p0=0.1))


def test_run_trace_structure_and_series():
    spec = make_spec(horizon=60, replicas=8)
    result = run_trace(spec, a_c_values=(0.6, 1.01), h=0.01, x0=5.0)
    assert result.x_name == "t"
    assert result.x == tuple(float(t) for t in range(1, 61))
    assert set(result.series) == {"x_ac0.6", "j_ac0.6", "x_ac1.01", "j_ac1.01"}
    # running cost is positive and the stable trace settles near its prediction
    j06 = np.array(result.series["j_ac0.6"])
    assert (j06 > 0.0).all()
    assert result.meta["predicted_j_ave"]["ac0.6"] == pytest.approx(
        PLANT.sigma_w2 / (1.0 - 0.36) + 0.0, rel=0.2
    )
    # unreachable factor: no gains recorded, bare recursion is simulated
    assert result.meta["gains"]["ac1.01"] is None
    assert result.meta["gains"]["ac0.6"] is not None
    # the divergent factor's running cost keeps climbing
    j101 = np.array(result.series["j_ac1.01"])
    assert j101[-1] > j101[9] > 0.0


def test_run_trace_flags_guard_crossings():
    # a_c = 3 crosses the divergence guard within 60 steps: the states from
    # there on and the whole running-cost series are inf
    spec = make_spec(horizon=60, replicas=4)
    result = run_trace(spec, a_c_values=(3.0,), h=0.01, x0=5.0)
    xs = result.series["x_ac3"]
    crossed = next(t for t, x in enumerate(xs) if math.isinf(x))
    assert 0 < crossed and all(map(math.isinf, xs[crossed:]))
    assert max(abs(x) for x in xs[:crossed]) < DIVERGENCE_GUARD
    assert not any(map(math.isfinite, result.series["j_ac3"]))
    assert all(map(math.isinf, result.series["j_ac3"]))


def test_run_trace_deterministic():
    spec = make_spec(horizon=40, replicas=4)
    a = run_trace(spec, (0.9,), h=0.01)
    b = run_trace(spec, (0.9,), h=0.01)
    assert a.series == b.series
    c = run_trace(make_spec(horizon=40, replicas=4, seed=1), (0.9,), h=0.01)
    assert a.series != c.series


def test_run_single_compare_columns_and_flags():
    # grid straddles the stabilizability threshold at ~0.97 dBm (1.25 mW)
    spec = make_spec(powers_w=(5e-4, 0.1), horizon=120, replicas=60)
    result = run_single_compare(spec, h=0.01)
    assert result.x_name == "p0_w"
    expected_cols = {
        "analog_pred", "analog_sim",
        "bch15_11_qam16", "bch15_11_qam256", "bch7_4_qam16", "bch7_4_qam256",
    }
    assert set(result.series) == expected_cols
    # below threshold: analog columns unbounded
    assert not math.isfinite(result.series["analog_pred"][0])
    assert not math.isfinite(result.series["analog_sim"][0])
    assert math.isinf(result.series["analog_pred"][0])
    # above: prediction equals the closed form
    noise = spec.noise_at(0.1)
    expected = optimize_single_slow(PLANT, noise, 0.01).j_ave
    assert result.series["analog_pred"][1] == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(result.series["analog_pred"][1])
    assert result.meta["feasible_points"] == 1
    assert result.meta["threshold_p0_w"] == pytest.approx(12500.0 * 1e-7, rel=1e-9)


def test_compare_simulates_only_the_coded_cells_the_exact_verdict_leaves(monkeypatch):
    # the default 0:40:5 dBm grid: 14 of the 36 coded cells sit below their
    # scheme's exact knee (9.01 / 12.96 / 15.41 / 23.25 dBm) and run nothing
    simulated, run = [], experiments.run_coded_control

    def counted(plant, noise, h, scheme, *args):
        simulated.append((noise.p0, scheme.name))
        return run(plant, noise, h, scheme, *args)

    monkeypatch.setattr(experiments, "run_coded_control", counted)
    powers = tuple(1e-3 * 10.0 ** (dbm / 10.0) for dbm in range(0, 41, 5))
    spec = make_spec(powers_w=powers, horizon=40, replicas=8)
    result = run_single_compare(spec, h=0.01)
    assert len(simulated) == 22
    for name, scheme in SCHEMES.items():
        required = required_success_probability(PLANT, scheme)
        assert result.meta["coded_required_success"][name] == required
        for i, p0 in enumerate(powers):
            success = word_success(scheme, spec.noise_at(p0), 0.01)
            assert result.meta["coded_word_success"][name][i] == success
            assert ((p0, name) in simulated) == (success > required)
            if success <= required:
                assert result.series[name][i] == math.inf


def test_a_coded_cell_the_exact_verdict_passes_still_needs_a_stable_run():
    # at 40 dBm the d = 2 scheme's exact word success is 1, but a one-step
    # horizon holds no whole epoch: no word is sent, and the run is unstable
    spec = make_spec(powers_w=(10.0,), horizon=1, replicas=4)
    result = run_single_compare(spec, h=0.01, schemes=("bch7_4_qam16",))
    assert result.meta["coded_word_success"]["bch7_4_qam16"][0] == 1.0
    assert result.series["bch7_4_qam16"] == (math.inf,)


def test_run_single_compare_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        run_single_compare(make_spec(), h=0.01, schemes=("bch31_26_qam4",))


def test_run_multi_sweep_slow_reference_costs():
    spec = make_spec(powers_w=(1e-3, 0.1), horizon=150, replicas=80)
    result = run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    names = {
        "p1_w", "k1", "g1", "j1_pred", "j1_sim",
        "p2_w", "k2", "g2", "j2_pred", "j2_sim",
        "j_total_pred", "j_total_sim",
    }
    assert set(result.series) == names
    # first grid point sits under the summed floors: everything unbounded
    assert not any(math.isfinite(result.series[n][0]) for n in names)
    assert result.meta["allocations"][0] is None
    # second point: allocation shares recover the closed-form split
    alloc = result.meta["allocations"][1]
    assert_allclose(alloc["gamma"], (668750.0, 331250.0), rtol=1e-9)
    assert result.series["j1_pred"][1] == pytest.approx(0.10342857142857144, rel=1e-9)
    assert result.series["j2_pred"][1] == pytest.approx(0.10171428571428573, rel=1e-9)
    assert result.series["j_total_pred"][1] == pytest.approx(0.20514285714285713, rel=1e-8)
    # allocated powers add up to the budget
    assert result.series["p1_w"][1] + result.series["p2_w"][1] == pytest.approx(0.1, rel=1e-9)
    assert result.meta["threshold_p0_w"] == pytest.approx(15625.0 * 1e-7, rel=1e-9)
    assert result.meta["feasible_points"] == 1


def test_run_multi_sweep_fast_reference_allocation():
    spec = make_spec(powers_w=(0.1,), horizon=150, replicas=80)
    result = run_multi_sweep(spec, ((1, 1e-4), (2, 4e-4)), regime="fast")
    alloc = result.meta["allocations"][0]
    assert_allclose(alloc["gamma"], (678088.7954714694, 321911.204527818), rtol=1e-8)
    assert result.series["j_total_pred"][0] == pytest.approx(1.202478242825697, rel=1e-9)
    assert math.isfinite(result.series["j_total_pred"][0])
    with pytest.raises(ValueError):
        run_multi_sweep(spec, ((1, 1e-4),), regime="medium")
    with pytest.raises(ValueError):
        run_multi_sweep(spec, (), regime="slow")
    with pytest.raises(ValueError, match="plant ids must be non-negative"):
        run_multi_sweep(spec, ((1, 1e-4), (-1, 4e-4)), regime="fast")


@pytest.mark.parametrize("regime, channels", [
    ("slow", ((1, 0.01), (1, 0.02))), ("fast", ((2, 1e-4), (3, 4e-4), (2, 1e-4)))
])
def test_run_multi_sweep_refuses_a_plant_id_given_twice(regime, channels):
    # two plants under one id would share one column set and one set of
    # substreams, the second plant's costs overwriting the first's
    spec = make_spec(horizon=10, replicas=4)
    pid = channels[-1][0]
    with pytest.raises(ValueError, match=f"plant ids {pid} and {pid} share the column label 'p{pid}_w'"):
        run_multi_sweep(spec, channels, regime=regime)


def _allocated_on_the_reported_floors(channels, regime, plant=PLANT):
    """Whether a grid point exactly on a sweep's own ``floors_total`` is allocated."""
    # with sigma_z2 = 1 W the budget gamma0 is p0 exactly
    spec = make_spec(plant=plant, sigma_z2=1.0, powers_w=(1.0,), horizon=1, replicas=1)
    total = run_multi_sweep(spec, channels, regime).meta["floors_total"]
    on_floors = ExperimentSpec(plant, 1.0, (total,), horizon=1, replicas=1)
    return run_multi_sweep(on_floors, channels, regime).meta["feasible_points"] == 1


def test_a_point_on_the_reported_floors_is_allocated():
    # the gate, the sidecar and the allocator share one floor array and one
    # sum, so a point that passes the gate is never refused.  From 8 plants on
    # numpy's pairwise sum is not the left-to-right one, and at a = 1.439 the
    # two groupings of eta a^2 give floors an ulp apart
    rng = np.random.default_rng(0)
    for _ in range(200):
        hs = np.abs(rng.normal(0.0, math.sqrt(0.5e-4), (9, 2)) @ [1.0, 1j])
        assert _allocated_on_the_reported_floors(tuple(enumerate(hs.tolist(), 1)), "slow")
    fast_pair = ((1, 1e-4), (2, 4e-4))
    assert _allocated_on_the_reported_floors(fast_pair, "fast", PlantParams(1.439, 0.1))


def test_spec_refuses_a_negative_seed_and_a_horizon_past_the_bound():
    make_spec(horizon=experiments.MAX_HORIZON, replicas=1)
    with pytest.raises(ValueError, match=r"horizon must be between 1 and 262144 \(got 262145\)"):
        make_spec(horizon=experiments.MAX_HORIZON + 1)
    with pytest.raises(ValueError, match=r"seed must be >= 0 \(got -1\)"):
        make_spec(seed=-1)


def test_run_multi_sweep_deterministic():
    spec = make_spec(powers_w=(0.1,), horizon=100, replicas=50)
    a = run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    b = run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    assert a.series == b.series


def _block_sensitive_results():
    spec = make_spec(powers_w=(0.1,), horizon=60, replicas=50)
    trace = run_trace(spec, (0.6, 1.01, 3.0), h=0.01, x0=5.0)
    compare = run_single_compare(spec, h=0.01, schemes=())
    slow = run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    fast = run_multi_sweep(spec, ((1, 1e-4), (2, 4e-4)), regime="fast")
    return [r.series for r in (trace, compare, slow, fast)]


def test_block_size_changes_no_result(monkeypatch):
    # 7-row blocks: 50 replicas run as 7 whole blocks plus a 1-row remainder;
    # a block smaller than the horizon still holds one row
    default = _block_sensitive_results()
    assert model.BLOCK_ELEMENTS // 60 >= 50  # one block by default
    for elements in (7 * 60 + 59, 59):
        monkeypatch.setattr(model, "BLOCK_ELEMENTS", elements)
        assert _block_sensitive_results() == default


def test_fast_sweep_memory_is_bounded_by_the_block():
    # drawn as dense (replicas, horizon) arrays this point peaks at 459 MB;
    # in row blocks at about 8 MB
    spec = make_spec(powers_w=(0.1,), horizon=500, replicas=20000)
    tracemalloc.start()
    try:
        result = run_multi_sweep(spec, ((1, 1e-4),), regime="fast")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(result.series["j1_sim"][0])
    assert peak < 64 * 2**20


@pytest.mark.parametrize("cell", ["fast", "trace"])
def test_an_analog_cell_holds_about_two_block_arrays(cell):
    # the kernel steps the draws in the layout they arrive in: a fast cell
    # holds its noise block and one block for w and then its factors, and a
    # trace cell squares its block and sums it in place
    spec = make_spec(powers_w=(0.1,), horizon=500, replicas=5000)
    run = {"fast": lambda: run_multi_sweep(spec, ((1, 1e-4),), regime="fast"),
           "trace": lambda: run_trace(spec, (0.9,), h=0.01)}[cell]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * model.BLOCK_ELEMENTS * 8


def test_a_simulated_cell_holds_one_block_pair_whatever_its_replicas():
    # 400k replicas at T = 10: the cell draws and steps one 2 MiB block pair
    # at a time, and reduces each block's per-replica means through one
    # 32 KiB buffer.  The peak is about 3.3 MiB; a second block pair, one
    # float per replica (3 MiB), or a window-sized temporary in the guard
    # check would pass the bound
    spec = make_spec(horizon=10, replicas=400_000)
    cell = lambda: model.mean_cost(experiments._simulated_blocks(spec, (0, 0), 138.97, 0.9),
                                  spec.replicas)
    cell()
    tracemalloc.start()
    try:
        cost = cell()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(cost)
    assert peak < 4 * 2**20


def _dense_reference_states(spec, key, g, a_c, fading=None, x0=0.0):
    """The loop's states from one dense (replicas, T) draw per substream,
    stepped by a plain time loop over replica-major arrays."""
    shape = (spec.replicas, spec.horizon)

    def draw(purpose, power):
        return substream(spec.seed, *key, purpose).normal(0.0, math.sqrt(power), shape)

    z = draw(experiments._DRAW_Z, spec.sigma_z2)
    noise = g * z + draw(experiments._DRAW_W, spec.plant.sigma_w2)
    coeff = np.full(shape, a_c)
    if fading is not None:
        product, sigma_h2 = fading
        coeff = a_c + product * np.abs(draw(experiments._DRAW_H, sigma_h2))
    x, states = np.full(spec.replicas, x0), np.empty(shape)
    for t in range(spec.horizon):
        x = coeff[:, t] * x + noise[:, t]
        states[:, t] = x
    assert (np.abs(states) < DIVERGENCE_GUARD).all()
    return states


def _dense_reference_cost(spec, key, g, a_c, fading=None):
    """The loop's mean cost from ``_dense_reference_states``."""
    states = _dense_reference_states(spec, key, g, a_c, fading)
    return float(np.mean(states**2, axis=1).mean())


@pytest.mark.parametrize("block_rows", [None, 100, 7], ids=["default", "100-row", "7-row"])
@pytest.mark.parametrize(
    "g, a_c, fading", [(138.97, 0.9, None), (100.0, 1.5, (-100.0, 1e-4))], ids=["slow", "fast"]
)
def test_blocks_equal_a_dense_reference(monkeypatch, block_rows, g, a_c, fading):
    # 150 replicas: one block by default, or 2 or 22 blocks, each drawn with
    # one call per stream
    spec = make_spec(horizon=40, replicas=150)
    if block_rows is not None:
        monkeypatch.setattr(model, "BLOCK_ELEMENTS", block_rows * spec.horizon)
    key = (experiments._KIND_MULTI_FAST, 0, 1)
    blocks = experiments._simulated_blocks(spec, key, g, a_c, fading)
    expected = _dense_reference_cost(spec, key, g, a_c, fading)
    assert model.mean_cost(blocks, spec.replicas) == expected


def test_trace_blocks_sum_to_one_dense_reduction(monkeypatch):
    # 50 replicas in 7-row blocks: 8 blocks, each added into the running sum
    # in place.  The running cost equals the one from a single dense
    # reduction of every replica's squares, bit for bit
    spec = make_spec(horizon=60, replicas=50)
    g, a_c, x0 = 138.97, 0.9, 5.0
    monkeypatch.setattr(model, "BLOCK_ELEMENTS", 7 * spec.horizon)
    first, running = experiments._trace_sums(spec, 0, g, a_c, x0)
    states = _dense_reference_states(spec, (experiments._KIND_TRACE, 0), g, a_c, x0=x0)
    sum_sq = np.add.reduce(states**2, axis=0)
    assert_array_equal(first, states[0])
    assert_array_equal(running, np.cumsum(sum_sq / spec.replicas) / np.arange(1, spec.horizon + 1))


@pytest.mark.parametrize("fading", [None, (1e-3, 1e-4)], ids=["slow", "fast"])
def test_a_diverged_block_makes_the_cost_inf_and_draws_no_more(monkeypatch, fading):
    # a_c = 3 crosses the guard within 60 steps in the first of ten 7-row blocks
    monkeypatch.setattr(model, "BLOCK_ELEMENTS", 7 * 60)
    spec = make_spec(horizon=60, replicas=70)
    blocks, taken = experiments._simulated_blocks(spec, (0, 0), 1.0, 3.0, fading), []

    def counted():
        for block in blocks:
            taken.append(block)
            yield block

    assert model.mean_cost(counted(), spec.replicas) == math.inf
    assert len(taken) == 1


def hook_cell_pools(monkeypatch, submit):
    """Route each submit of every cell pool that ``_run_cells`` makes through
    ``submit(pool_submit, fn, *args)``."""

    class HookedPool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            return submit(super().submit, fn, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HookedPool)


def hold_back_cells(monkeypatch):
    """Hold each cell back 0.1 s on its thread; the list of their futures."""
    submitted = []

    def slow(pool_submit, fn, *args):
        submitted.append(pool_submit(lambda: (time.sleep(0.1), fn(*args))[1]))
        return submitted[-1]

    hook_cell_pools(monkeypatch, slow)
    return submitted


def forbid_cell_pools(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a cell used the pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)


def test_no_cell_submits_to_the_pool(monkeypatch):
    # only the calling thread submits cells, and a fast-fading cell run on
    # its own never touches a pool
    submitters = []

    def watched(pool_submit, fn, *args):
        submitters.append(threading.current_thread().name)
        return pool_submit(fn, *args)

    hook_cell_pools(monkeypatch, watched)
    spec = make_spec(powers_w=(0.01, 0.1), horizon=60, replicas=20)
    run_single_compare(spec, h=0.01)
    run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    run_multi_sweep(spec, ((1, 1e-4), (2, 4e-4)), regime="fast")
    factors = (0.5, 0.9, 1.01)
    run_trace(spec, factors, h=0.01)
    # 2 points of 1 analog and 4 coded cells, less the 4 coded cells whose
    # exact verdict is unstable (3 at 10 dBm, 1 at 20 dBm), then 2 points of
    # 2 plants, twice, then one cell per trace factor
    assert submitters == [threading.current_thread().name] * (14 + len(factors))

    forbid_cell_pools(monkeypatch)
    monkeypatch.setattr(model, "BLOCK_ELEMENTS", 7 * spec.horizon)
    blocks = experiments._simulated_blocks(spec, (0, 0), 100.0, 1.5, fading=(-100.0, 1e-4))
    assert math.isfinite(model.mean_cost(blocks, spec.replicas))


def test_concurrent_sweeps_equal_their_sequential_results(monkeypatch):
    # four library callers run their cells, 3 feasible points of 2 plants
    # and 8 blocks a cell each, at once, each caller on its own two cell
    # threads, with the interpreter switching threads far more often than by
    # default
    monkeypatch.setattr(model, "BLOCK_ELEMENTS", 7 * 60)
    jobs = [
        (make_spec(powers_w=(1e-3, 0.02, 0.05, 0.1), horizon=60, replicas=50, seed=seed),
         channels, regime)
        for seed in (0, 1)
        for channels, regime in ((((1, 1e-4), (2, 4e-4)), "fast"), (((1, 0.01), (2, 0.02)), "slow"))
    ]
    sequential = [run_multi_sweep(*job).series for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(jobs)) as callers:
            results = callers.map(lambda job: run_multi_sweep(*job).series, jobs, timeout=120)
            concurrent = list(results)
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential


def test_concurrent_compares_equal_their_sequential_results():
    # four library callers run their cells at once, each caller on its own
    # two cell threads, with the interpreter switching threads far more often
    # than by default
    specs = [
        make_spec(powers_w=(5e-4, 0.01, 0.1), horizon=60, replicas=50, seed=seed)
        for seed in range(4)
    ]
    sequential = [run_single_compare(spec, h=0.01).series for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(specs)) as callers:
            results = callers.map(lambda spec: run_single_compare(spec, h=0.01).series, specs,
                                  timeout=120)
            concurrent = list(results)
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential


def test_a_failing_compare_cell_raises_and_leaves_no_cell_running(monkeypatch):
    # the bch7_4_qam256 loop raises on its thread, while each cell is held
    # back 0.1 s there; from 17 dBm up the exact verdict runs every coded cell
    submitted, run = hold_back_cells(monkeypatch), experiments.run_coded_control

    def failing_loop(plant, noise, h, scheme, *args):
        if scheme.name == "bch7_4_qam256":
            raise RuntimeError("the bch7_4_qam256 loop failed")
        return run(plant, noise, h, scheme, *args)

    monkeypatch.setattr(experiments, "run_coded_control", failing_loop)
    spec = make_spec(powers_w=(0.05, 0.1, 0.2, 0.5), horizon=60, replicas=20)
    with pytest.raises(RuntimeError, match="bch7_4_qam256"):
        run_single_compare(spec, h=0.01,
                           schemes=("bch7_4_qam16", "bch7_4_qam256", "bch15_11_qam16"))
    # 4 analog and 12 coded cells: the ones after the failure never started
    assert len(submitted) == 16
    assert all(future.done() for future in submitted)
    assert any(future.cancelled() for future in submitted)


def test_a_scheme_the_link_refuses_raises_before_any_cell_runs(monkeypatch):
    # (31, 26) is too long for the link's label table: its exact verdict
    # raises on the calling thread, before a single cell is submitted
    too_long = CodingScheme("h31", n=31, k=26, generator=0b100101, bits_per_symbol=2)
    monkeypatch.setitem(experiments.SCHEMES, too_long.name, too_long)
    forbid_cell_pools(monkeypatch)
    spec = make_spec(powers_w=(0.01, 0.1), horizon=60, replicas=20)
    with pytest.raises(ValueError, match="2\\^k"):
        run_single_compare(spec, h=0.01, schemes=("bch7_4_qam16", "h31"))


def test_costs_land_under_their_keys_though_the_first_cell_finishes_last():
    def cost(value, delay):
        time.sleep(delay)
        return value

    cells = {("j1_sim", 2): (cost, 1.0, 0.2), ("j1_sim", 0): (cost, 2.0, 0.1), 7: (cost, 3.0, 0.0)}
    costs = experiments._run_cells(cells)
    assert costs == {("j1_sim", 2): 1.0, ("j1_sim", 0): 2.0, 7: 3.0}
    assert list(costs) == list(cells)
    assert experiments._run_cells({}) == {}


def test_a_failing_multi_sweep_cell_raises_and_leaves_no_cell_running(monkeypatch):
    # plant 2's cells raise on their first draw, while each cell is held back
    # 0.1 s on its thread
    submitted = hold_back_cells(monkeypatch)

    def failing_substream(seed, *key):
        # key is (kind, grid index, plant id, purpose)
        if key[2] == 2:
            raise RuntimeError("plant 2's draw failed")
        return substream(seed, *key)

    monkeypatch.setattr(experiments, "substream", failing_substream)
    spec = make_spec(powers_w=(0.01, 0.02, 0.05, 0.1), horizon=60, replicas=20)
    with pytest.raises(RuntimeError, match="plant 2"):
        run_multi_sweep(spec, ((1, 1e-4), (2, 4e-4)), regime="fast")
    # 4 points of 2 cells: the ones after the failure never started
    assert len(submitted) == 8
    assert all(future.done() for future in submitted)
    assert any(future.cancelled() for future in submitted)


def test_a_failing_trace_cell_raises_and_leaves_no_cell_running(monkeypatch):
    # factor 1's cell raises on its first draw, while each cell is held back
    # 0.1 s on its thread
    submitted = hold_back_cells(monkeypatch)

    def failing_substream(seed, *key):
        # key is (kind, factor index, purpose)
        if key[1] == 1:
            raise RuntimeError("factor 1's draw failed")
        return substream(seed, *key)

    monkeypatch.setattr(experiments, "substream", failing_substream)
    spec = make_spec(horizon=60, replicas=20)
    with pytest.raises(RuntimeError, match="factor 1"):
        run_trace(spec, (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), h=0.01)
    # 8 factors: the ones after the failure never started
    assert len(submitted) == 8
    assert all(future.done() for future in submitted)
    assert any(future.cancelled() for future in submitted)


def test_no_cell_thread_outlives_the_runner():
    # the runner's threads end before it returns, and before it raises
    ran_on = []

    def cost(value):
        ran_on.append(threading.current_thread())
        time.sleep(0.05)
        if value is None:
            raise RuntimeError("the cell failed")
        return value

    cells = {"a": (cost, 1.0), "b": (cost, 2.0), "c": (cost, 3.0)}
    assert experiments._run_cells(cells) == {"a": 1.0, "b": 2.0, "c": 3.0}
    assert ran_on and not any(thread.is_alive() for thread in ran_on)
    ran_on.clear()
    with pytest.raises(RuntimeError, match="the cell failed"):
        experiments._run_cells({"a": (cost, 1.0), "b": (cost, None), "c": (cost, 2.0),
                                "d": (cost, 3.0)})
    assert ran_on and not any(thread.is_alive() for thread in ran_on)


def test_run_selection_sweep_monotone_and_bounded():
    spec = make_spec(
        plant=PlantParams(a=1.1, sigma_w2=0.1),
        powers_w=tuple(10 ** ((d - 30) / 10) for d in range(0, 26, 5)),
        horizon=10,
        replicas=1,
    )
    result = run_selection_sweep(spec, m0_values=(2, 5), realizations=2000)
    assert set(result.series) == {"m2_avg_selected", "m5_avg_selected"}
    for m0 in (2, 5):
        avg = np.array(result.series[f"m{m0}_avg_selected"])
        assert (np.diff(avg) >= 0.0).all()
        assert (avg >= 0.0).all() and (avg <= m0).all()
    assert result.meta["m0_values"] == [2, 5]
    with pytest.raises(ValueError):
        run_selection_sweep(spec, m0_values=(0,))
    with pytest.raises(ValueError):
        run_selection_sweep(spec, realizations=0)


def test_selection_sweep_deterministic_per_seed():
    spec = make_spec(plant=PlantParams(a=1.1, sigma_w2=0.1), powers_w=(0.01, 0.1))
    a = run_selection_sweep(spec, m0_values=(3,), realizations=500)
    b = run_selection_sweep(spec, m0_values=(3,), realizations=500)
    assert a.series == b.series
    c = run_selection_sweep(
        make_spec(plant=PlantParams(a=1.1, sigma_w2=0.1), powers_w=(0.01, 0.1), seed=9),
        m0_values=(3,),
        realizations=500,
    )
    assert a.series != c.series


def test_selection_sweep_counts_equal_a_brute_force_oracle():
    # per realization, the largest subset of the redrawn plants whose exactly
    # summed floors fit the budget; the grid runs from budgets that admit no
    # plant in some realization to budgets that admit every plant
    spec = make_spec(plant=PlantParams(a=1.2, sigma_w2=0.1), seed=11,
                     powers_w=tuple(1e-3 * 10.0 ** (dbm / 10.0) for dbm in range(0, 31, 3)))
    m0_values, realizations = (1, 3, 6), 400
    result = run_selection_sweep(spec, m0_values=m0_values, realizations=realizations)
    budgets = [p0 / spec.sigma_z2 for p0 in spec.powers_w]
    seen = set()
    for mi, m0 in enumerate(m0_values):
        draws = [
            rayleigh_gain_samples(1e-4, substream(11, experiments._KIND_SELECT, mi, j,
                                                  experiments._DRAW_H), realizations)
            for j in range(m0)
        ]
        counts = [[0] * realizations for _ in budgets]
        for r in range(realizations):
            floors = [(1.2 * 1.2 - 1.0) / (float(h[r]) * float(h[r])) for h in draws]
            cheapest = [min(math.fsum(s) for s in itertools.combinations(floors, k))
                        for k in range(m0 + 1)]
            for bi, budget in enumerate(budgets):
                counts[bi][r] = max(k for k in range(m0 + 1) if cheapest[k] <= budget)
                seen.add((counts[bi][r] == 0, counts[bi][r] == m0))
        expected = tuple(sum(c) / realizations for c in counts)
        assert result.series[f"m{m0}_avg_selected"] == expected
    assert seen == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("m0, realizations", [(400, 2500), (1, 1 << 19)])
def test_a_selection_sweep_holds_one_floor_array(m0, realizations):
    # 2500 realizations of 400 plants: the sweep holds one (2500, 400) float
    # array, 7.63 MiB, and sorts and sums it in place.  Per-plant draws
    # stacked into a copy, and floors and prefix sums beside it, peak at 38 MiB.
    # 2^19 realizations of one plant: a 4 MiB column, whose gains are drawn
    # and priced 2^16 at a time, 5.5 MiB in all; drawn whole, the draw, h * h
    # and the quotient held three more columns, 16 MiB
    spec = make_spec(plant=PlantParams(a=1.2, sigma_w2=0.1), powers_w=(1e-3, 1e-2, 0.1))
    sweep = lambda: run_selection_sweep(spec, m0_values=(m0,), realizations=realizations)
    sweep()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("size, chunk", [(1_000_003, 65_536), (17, 4), (300_000, 99_991)])
def test_chunked_rayleigh_draws_equal_the_dense_draw(size, chunk):
    # each gain is drawn in turn from the bit generator, so consecutive
    # chunks of a plant's draw are its dense draw, bit for bit, and leave
    # the stream where the dense draw does
    dense_rng, chunked_rng = substream(3, 1), substream(3, 1)
    dense = rayleigh_gain_samples(1e-4, dense_rng, size)
    chunks = [rayleigh_gain_samples(1e-4, chunked_rng, min(chunk, size - start))
              for start in range(0, size, chunk)]
    assert np.concatenate(chunks).tobytes() == dense.tobytes()
    assert chunked_rng.bit_generator.state == dense_rng.bit_generator.state


def test_selection_chunks_change_no_count(monkeypatch):
    # 1000 realizations in one chunk, then in chunks of 7, the last of 6
    spec = make_spec(plant=PlantParams(a=1.2, sigma_w2=0.1), powers_w=(1e-3, 1e-2, 0.1))
    sweep = lambda: run_selection_sweep(spec, m0_values=(1, 3), realizations=1000).series
    default = sweep()
    monkeypatch.setattr(experiments, "_SELECTION_CHUNK", 7)
    assert sweep() == default


def test_sweep_result_is_plain_data():
    res = SweepResult(x_name="p0_w", x=(1.0, 2.0), series={"j": (0.5, math.inf)})
    assert res.meta == {}


def test_substream_is_deterministic_per_key():
    a = substream(123, 4, 5).normal(size=8)
    b = substream(123, 4, 5).normal(size=8)
    assert_array_equal(a, b)


def test_substream_distinct_keys_distinct_streams():
    # keys of the same arity must give unrelated streams (callers always use a
    # fixed key depth: trailing zeros are indistinguishable to the seeding)
    base = substream(123, 0, 0).normal(size=8)
    for key in [(123, 0, 1), (123, 1, 0), (124, 0, 0), (123, 2, 2)]:
        other = substream(*key).normal(size=8)
        assert not np.array_equal(base, other)


def test_substream_rejects_negative_keys():
    with pytest.raises(ValueError):
        substream(-1)
    with pytest.raises(ValueError):
        substream(0, -2)


def test_rayleigh_gain_samples_mean_power():
    # E[h^2] must equal the requested mean power gain
    rng = substream(7, 1)
    h = rayleigh_gain_samples(1e-4, rng, size=200_000)
    assert np.all(h > 0.0)
    assert np.mean(h**2) == pytest.approx(1e-4, rel=0.01)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rayleigh_gain_samples(bad, rng, size=4)
