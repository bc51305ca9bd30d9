"""Experiment recipes: traces, comparisons, allocation sweeps, selection."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wncs.experiments import (
    ExperimentSpec,
    SweepResult,
    implied_trace_gains,
    run_multi_sweep,
    run_selection_sweep,
    run_single_compare,
    run_trace,
)
from wncs.model import DIVERGENCE_GUARD, NoisePowers, PlantParams
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
    # a_c = 3 crosses the divergence guard within 60 steps: the state is
    # clamped there, its cells and the whole running-cost series are flagged
    spec = make_spec(horizon=60, replicas=4)
    result = run_trace(spec, a_c_values=(3.0,), h=0.01, x0=5.0)
    x_ok = result.bounded["x_ac3"]
    assert x_ok[0] and not x_ok[-1]
    assert max(abs(x) for x in result.series["x_ac3"]) == DIVERGENCE_GUARD
    assert not any(result.bounded["j_ac3"])


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
    assert not result.bounded["analog_pred"][0]
    assert not result.bounded["analog_sim"][0]
    assert math.isinf(result.series["analog_pred"][0])
    # above: prediction equals the closed form
    noise = spec.noise_at(0.1)
    expected = optimize_single_slow(PLANT, noise, 0.01).j_ave
    assert result.series["analog_pred"][1] == pytest.approx(expected, rel=1e-12)
    assert result.bounded["analog_pred"][1]
    assert result.meta["feasible_points"] == 1
    assert result.meta["threshold_p0_w"] == pytest.approx(12500.0 * 1e-7, rel=1e-9)


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
    assert not any(result.bounded[n][0] for n in names)
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
    assert result.bounded["j_total_pred"][0]
    with pytest.raises(ValueError):
        run_multi_sweep(spec, ((1, 1e-4),), regime="medium")
    with pytest.raises(ValueError):
        run_multi_sweep(spec, (), regime="slow")


def test_run_multi_sweep_deterministic():
    spec = make_spec(powers_w=(0.1,), horizon=100, replicas=50)
    a = run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    b = run_multi_sweep(spec, ((1, 0.01), (2, 0.02)), regime="slow")
    assert a.series == b.series
    assert a.bounded == b.bounded


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


def test_sweep_result_is_plain_data():
    res = SweepResult(
        x_name="p0_w", x=(1.0,), series={"j": (0.5,)}, bounded={"j": (True,)}
    )
    assert res.meta == {}
