"""Command-line surface: units, grids, config layering, CSV contract, exits."""
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wncs
from wncs import cli, coded
from wncs.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    INF_TOKEN,
    dbm_to_watts,
    emit_csv,
    main,
    parse_power,
    parse_power_grid,
    watts_to_dbm,
)
from wncs.experiments import MAX_REPLICAS, MAX_SELECTION_VALUES, SweepResult


def test_dbm_round_trip():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert watts_to_dbm(0.1) == pytest.approx(20.0, abs=1e-12)
    for dbm in (-40.0, 0.9691, 20.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)


@pytest.mark.parametrize(
    "argv", [["trace", "--p0", "4000 dBm"], ["compare", "--grid", "0:9999:1 dBm"]],
    ids=["p0", "grid"],
)
def test_a_dbm_power_past_the_float_range_is_refused_by_name(tmp_path, capsys, argv):
    # 10^((dBm - 30)/10) W overflows a float past about 3112.5 dBm
    assert math.isfinite(dbm_to_watts(3112.5))
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "dBm is past the largest float power, about 3112.5 dBm" in err
    assert "Traceback" not in err and "Numerical result" not in err
    assert not out.exists()


def test_importing_the_cli_loads_no_yaml():
    # only --config reads YAML: a fresh interpreter that imports the CLI leaves it out
    src = str(Path(wncs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, wncs.cli; sys.exit('yaml' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_parse_power_units():
    assert parse_power("-40 dBm") == pytest.approx(1e-7, rel=1e-12)
    assert parse_power("20dbm") == pytest.approx(0.1, rel=1e-12)
    assert parse_power("100 mW") == pytest.approx(0.1, rel=1e-12)
    assert parse_power("0.25 w") == pytest.approx(0.25, rel=1e-12)
    assert parse_power(" 5e-3 W ") == pytest.approx(5e-3, rel=1e-12)


def test_parse_power_rejects_unitless_and_junk():
    for bad in ("100", "0.1", "10 dB", "ten mW", "", "1 mW extra"):
        with pytest.raises(ValueError):
            parse_power(bad)


def test_parse_power_grid_range_form():
    grid = parse_power_grid("0:40:5 dBm")
    assert len(grid) == 9
    assert grid[0] == pytest.approx(1e-3, rel=1e-12)
    assert grid[-1] == pytest.approx(10.0, rel=1e-12)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    watts = parse_power_grid("0.1:0.3:0.1 W")
    assert len(watts) == 3
    assert watts[1] == pytest.approx(0.2, rel=1e-9)


def test_parse_power_grid_list_form():
    # one trailing unit applies to every entry in the comma list
    grid = parse_power_grid("1,100,1000 mW")
    assert grid == pytest.approx((1e-3, 0.1, 1.0))
    assert parse_power_grid("-40,-20,0 dBm") == pytest.approx((1e-7, 1e-5, 1e-3))


def test_parse_power_grid_rejects_disorder():
    with pytest.raises(ValueError):
        parse_power_grid("10:0:5 dBm")
    with pytest.raises(ValueError):
        parse_power_grid("0.1 W, 0.1 W")
    with pytest.raises(ValueError):
        parse_power_grid("")
    # a non-finite range end or step is refused, naming the range
    for body in ("0:inf:1", "-inf:0:1", "nan:0:1", "0:10:inf"):
        with pytest.raises(ValueError, match=f"grid range '{body}' must have finite"):
            parse_power_grid(f"{body} dBm")


def test_power_text_has_one_grammar():
    # a single power is a one-point grid: the space before the unit is
    # optional in both, and the order written is kept for the recipes to check
    for spaced in ("20 dBm", "0.1 W", "0:40:5 dBm", "1,100 mW"):
        assert parse_power_grid(spaced.replace(" ", "")) == parse_power_grid(spaced)
    assert parse_power("20dBm") == parse_power_grid("20 dBm")[0]
    assert parse_power_grid("2,1 dBm") == (dbm_to_watts(2.0), dbm_to_watts(1.0))
    with pytest.raises(ValueError, match="expected one power, got 2"):
        parse_power("1,2 W")
    # one unit after the last number, in one string: a unit per number is refused
    one_unit = "one string with one unit after its last number"
    for bad, refusal in (("nan,1 W", "not a finite number"), (", dBm", "the list is empty"),
                         (20, "missing a unit"), ("20 dBm,30 dBm", one_unit),
                         ("20dBm, 30dBm", one_unit), ("0 dBm:10 dBm:5 dBm", one_unit),
                         (["20 dBm", "30 dBm"], one_unit), ([20, 30], one_unit)):
        with pytest.raises(ValueError, match=refusal):
            parse_power_grid(bad)


def test_a_grid_range_holds_a_bounded_count_of_points():
    # the count is refused before a point is built, an overflowing one too
    for body in ("0:1:1e-5", "0:1e308:1e-308", "-1e308:1e308:1"):
        with pytest.raises(ValueError, match=f"grid range '{body}' holds more than 10000 points"):
            parse_power_grid(f"{body} dBm")
    assert len(parse_power_grid(f"1:{cli.MAX_GRID_POINTS}:1 W")) == cli.MAX_GRID_POINTS


def _tiny_result():
    return SweepResult(
        x_name="p0_w",
        x=(0.001, 0.01),
        series={"j": (0.5, float("inf")), "k": (1.25, 2.5)},
        meta={"feasible_points": 1},
    )


def test_emit_csv_layout_and_inf_token(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(_tiny_result(), str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "p0_w,j,k"
    assert lines[1] == "0.001,0.5,1.25"
    assert lines[2].split(",")[1] == INF_TOKEN
    assert text.endswith("\n")
    # values round-trip exactly through repr
    assert float(lines[1].split(",")[2]) == 1.25
    # every non-finite cell prints the one token, whatever its sign or NaN-ness
    odd = SweepResult(x_name="t", x=(0.0,), series={"lo": (-math.inf,), "nan": (math.nan,)})
    emit_csv(odd, str(path))
    assert path.read_text().splitlines()[1] == f"0.0,{INF_TOKEN},{INF_TOKEN}"


def test_emit_csv_sidecar(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(_tiny_result(), str(path))
    sidecar = json.loads((path.with_suffix(".csv.meta.json")).read_text())
    assert sidecar["x_name"] == "p0_w"
    assert sidecar["series"] == ["j", "k"]
    assert sidecar["rows"] == 2
    assert sidecar["meta"]["feasible_points"] == 1
    assert "package_version" in sidecar


def test_emit_csv_writes_a_long_table_without_holding_its_text(tmp_path):
    # each row is written as it is formatted, so emitting a 50k-row table
    # never holds as much as the CSV's own bytes, nor a per-cell table
    rows = 50_000
    values = tuple(np.random.default_rng(0).standard_normal(rows).tolist())
    result = SweepResult(x_name="t", x=tuple(map(float, range(rows))),
                         series={"x": values, "j": values[::-1], "k": (math.inf,) * rows})
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        emit_csv(result, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert len(lines) == rows + 1 and lines[-1] == f"{rows - 1.0!r},{values[-1]!r},{values[0]!r},INF"
    assert peak < path.stat().st_size
    assert peak < 2**16


def test_sidecar_is_strict_json(tmp_path):
    # |a| = 1.7 is past the per-symbol-fading boundary, so the floors are
    # infinite: the sidecar says null, never the non-standard Infinity
    out = tmp_path / "x.csv"
    argv = ["multi-fast", "--a", "1.7", "--grid", "20 dBm", "--horizon", "10", "--replicas", "2"]
    assert main([*argv, "--out", str(out)]) == EXIT_INFEASIBLE

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    sidecar = json.loads((tmp_path / "x.csv.meta.json").read_text(), parse_constant=refuse)
    assert sidecar["meta"]["floors_total"] is None
    assert sidecar["meta"]["threshold_p0_w"] is None


def run_main(args):
    return main(args)


def test_trace_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_main(
        ["trace", "--horizon", "40", "--replicas", "4", "--a-c", "0.6,0.9",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 41
    sidecar = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert sidecar["config"]["kind"] == "trace"
    assert sidecar["config_sha256"]
    assert "wrote" in capsys.readouterr().out


def test_trace_from_a_huge_state_is_clamped_without_a_warning(tmp_path):
    # 1e200 squares past the float limit in the kernel's guard; under the
    # suite's warnings-as-errors a leaked overflow warning fails this run.
    # Every first state passes the guard and is clamped to it, so the first
    # row and every running cost are INF
    out = tmp_path / "trace.csv"
    args = ["trace", "--x0", "1e200", "--horizon", "5", "--replicas", "2", "--out", str(out)]
    assert run_main(args) == EXIT_OK
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 5
    assert all(cell == INF_TOKEN for cell in rows[0][1:])
    costs = [i for i, name in enumerate(header) if name.startswith("j_")]
    assert all(row[i] == INF_TOKEN for row in rows for i in costs)


def test_compare_with_a_large_disturbance_simulates_every_stable_coded_loop(tmp_path):
    # every state scales with the disturbance's std (1e11), so a guard of a
    # fixed 1e12 flagged the stable coded loops as diverged; the guard is
    # relative, and each coded cell is INF only where its exact verdict is
    out = tmp_path / "cmp.csv"
    args = ["compare", "--grid", "20 dBm", "--sigma-w2", "1e22", "--out", str(out)]
    assert run_main(args) == EXIT_OK
    header, row = [line.split(",") for line in out.read_text().splitlines()]
    cells = dict(zip(header, row))
    assert float(cells["analog_sim"]) == pytest.approx(float(cells["analog_pred"]), rel=0.05)
    meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())["meta"]
    stable = {name: rates[0] > meta["coded_required_success"][name]
              for name, rates in meta["coded_word_success"].items()}
    assert sum(stable.values()) == 3
    assert {name: cells[name] != INF_TOKEN for name in stable} == stable


def test_multi_slow_with_a_large_disturbance_is_not_diverged(tmp_path):
    # the loops are stable and their predicted costs are about 1e30: the
    # simulated ones are finite, not INF beside them
    out = tmp_path / "ms.csv"
    args = ["multi-slow", "--grid", "20 dBm", "--sigma-w2", "1e30", "--horizon", "50",
            "--replicas", "20", "--out", str(out)]
    assert run_main(args) == EXIT_OK
    header, row = [line.split(",") for line in out.read_text().splitlines()]
    cells = {name: float(cell) for name, cell in zip(header, row)}
    for j in ("j1", "j2", "j_total"):
        assert 1e29 < cells[f"{j}_pred"] < math.inf
        assert 0.5 < cells[f"{j}_sim"] / cells[f"{j}_pred"] < 2.0


def test_a_trace_whose_guard_squares_past_the_float_range_runs_clean(tmp_path):
    # a disturbance std of 1e150 makes the guard 1e162, whose square is inf;
    # under the suite's warnings-as-errors no overflow warning escapes. The
    # factor 3 crosses the guard, and the stable factor's costs are finite
    out = tmp_path / "trace.csv"
    args = ["trace", "--p0", "3000 dBm", "--sigma-z2", "2900 dBm", "--sigma-w2", "1e300",
            "--a-c", "0.5,3", "--horizon", "50", "--replicas", "20", "--out", str(out)]
    assert run_main(args) == EXIT_OK
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    last = dict(zip(header, rows[-1]))
    assert last["x_ac3"] == INF_TOKEN and last["j_ac3"] == INF_TOKEN
    assert all(math.isfinite(float(dict(zip(header, row))["j_ac0.5"])) for row in rows)


@pytest.mark.parametrize("argv", [["multi-fast"], ["multi-slow", "--h", "1,2"],
                                  ["compare", "--h", "1", "--schemes", "bch7_4_qam256"]],
                         ids=["multi-fast", "multi-slow", "compare"])
def test_a_finite_predicted_cost_whose_product_overflows_is_finite(tmp_path, argv):
    # gamma0 sigma_w2 = 1e310 passes the float range, but each predicted cost
    # is about 1e300, beside finite simulated costs
    out = tmp_path / "x.csv"
    args = [*argv, "--grid", "3000 dBm", "--sigma-z2", "2900 dBm", "--sigma-w2", "1e300",
            "--horizon", "50", "--replicas", "20", "--out", str(out)]
    assert run_main(args) == EXIT_OK
    header, row = [line.split(",") for line in out.read_text().splitlines()]
    preds = [float(cell) for name, cell in zip(header, row) if name.endswith("_pred")]
    assert preds and all(1e299 < pred < math.inf for pred in preds)


def test_compare_command_infeasible_grid_exits_2(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_main(
        ["compare", "--grid", "-10:-5:5 dBm", "--horizon", "30", "--replicas", "4",
         "--out", str(out)]
    )
    assert code == EXIT_INFEASIBLE
    # the CSV still exists, full of INF analog columns
    text = out.read_text()
    assert INF_TOKEN in text


def test_multi_slow_command_and_rerun_identical(tmp_path):
    out = tmp_path / "multi.csv"
    args = [
        "multi-slow", "--grid", "18:22:2 dBm", "--horizon", "60", "--replicas", "8",
        "--seed", "3", "--out", str(out),
    ]
    assert run_main(args) == EXIT_OK
    first = out.read_bytes()
    assert run_main(args) == EXIT_OK
    assert out.read_bytes() == first
    # a different seed changes the simulated columns
    assert run_main(args[:-3] + ["4", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() != first


def test_multi_fast_command(tmp_path):
    out = tmp_path / "fast.csv"
    code = run_main(
        ["multi-fast", "--grid", "12:14:2 dBm", "--horizon", "50", "--replicas", "8",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "p0_w"
    assert "j_total_pred" in header


def test_select_sweep_command(tmp_path):
    out = tmp_path / "select.csv"
    code = run_main(
        ["select-sweep", "--grid", "0:10:5 dBm", "--m0", "2,3",
         "--realizations", "200", "--out", str(out)]
    )
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header == "p0_w,m2_avg_selected,m3_avg_selected"


def test_select_sweep_with_no_plant_admitted_exits_2(tmp_path, capsys):
    # at -40..-30 dBm no drawn channel's floor fits the budget: the table is
    # all 0.0, which is the selection sweep's "no feasible grid point"
    out = tmp_path / "select.csv"
    code = run_main(["select-sweep", "--grid", "-40:-30:5 dBm", "--realizations", "50",
                     "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert "no feasible grid point" in capsys.readouterr().err
    rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 and all(float(cell) == 0.0 for row in rows for cell in row)
    sidecar = json.loads((tmp_path / "select.csv.meta.json").read_text())
    assert sidecar["meta"]["feasible_points"] == 0


def test_sidecar_config_is_kind_plus_the_settings_fields(tmp_path):
    out = tmp_path / "t.csv"
    assert run_main(["trace", "--horizon", "10", "--replicas", "2", "--out", str(out)]) == EXIT_OK
    config = json.loads((tmp_path / "t.csv.meta.json").read_text())["config"]
    assert config["kind"] == "trace"
    assert set(config) == {"kind"} | {field for field, *_ in cli._SETTINGS.values()}


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("a: 1.4\nreplicas: 6\nhorizon: 30\nh: 0.02\n")
    out = tmp_path / "cfg.csv"
    code = run_main(
        ["compare", "--config", str(cfg), "--grid", "20:20:1 dBm",
         "--replicas", "9", "--out", str(out)]
    )
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "cfg.csv.meta.json").read_text())
    # flag beats file; file beats default
    assert sidecar["config"]["replicas"] == 9
    assert sidecar["config"]["a"] == pytest.approx(1.4)
    assert sidecar["config"]["h"] == pytest.approx(0.02)
    assert sidecar["config"]["horizon"] == 30


@pytest.mark.parametrize(
    "text, named",
    [
        ("a: 1.4\nwhat_is_this: 1\n", "'what_is_this'"),
        # YAML keys that are not strings, alone or beside a string key
        ("1: 2\n", "1"),
        ("true: 2\n", "True"),
        ("null: 2\n", "None"),
        ("1: 2\nwhat_is_this: 1\n", "'what_is_this', 1"),
    ],
    ids=["str", "int", "bool", "null", "int-and-str"],
)
def test_config_file_unknown_key_is_usage_error(tmp_path, capsys, text, named):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    assert run_main(["compare", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err.rstrip().endswith(f"unknown field(s): {named}")


def test_usage_errors_exit_1(tmp_path):
    # argparse-level failures exit through SystemExit, remapped to status 1
    with pytest.raises(SystemExit) as err:
        run_main([])
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        run_main(["unknown-command"])
    assert err.value.code == EXIT_USAGE
    # config-level failures return the status
    assert run_main(["compare", "--grid", "10:0:5 dBm"]) == EXIT_USAGE
    assert run_main(["trace", "--p0", "100"]) == EXIT_USAGE  # unitless power
    out = tmp_path / "x.csv"
    # a stable plant is a configuration error, not a crash
    assert run_main(["compare", "--a", "0.9", "--out", str(out)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["multi-slow", "--a", "nan"],
        ["multi-slow", "--h", "nan,0.02"],
        ["multi-slow", "--h", "inf,0.02"],
        ["multi-slow", "--g-common", "nan"],
        ["multi-slow", "--k-common", "nan"],
        ["compare", "--h", "nan"],
        ["multi-fast", "--sigma-h2", "nan,4e-4"],
        ["multi-fast", "--sigma-w2", "nan"],
        ["select-sweep", "--mean-gain", "nan"],
        ["select-sweep", "--mean-gain", "1e-320"],
        ["trace", "--h", "nan"],
        ["trace", "--a-c", "nan"],
        ["trace", "--x0", "nan"],
        ["compare", "--grid", "0:inf:1 dBm"],
        ["compare", "--grid", "-inf:0:1 dBm"],
        ["compare", "--grid", "nan:0:1 dBm"],
        ["compare", "--h", "1e200"],
        ["compare", "--h", "1e150"],
        ["compare", "--a", "1e200"],
        ["multi-slow", "--h", "1e200,0.02"],
        ["trace", "--h", "1e200"],
        ["compare", "--h", "1e-200"],
        ["multi-slow", "--h", "1e-200,0.02"],
        ["trace", "--h", "1e-200"],
        ["select-sweep", "--m0", ","],
        ["compare", "--sigma-w2", "0"],
        ["multi-slow", "--sigma-w2", "0"],
        ["multi-fast", "--sigma-w2", "0"],
        # a float ** raises OverflowError where * gives inf
        ["trace", "--a-c", "1e200"],
        ["multi-slow", "--grid", "20 dBm", "--g-common", "1e300"],
        # finite settings whose ratios p0/sigma_z2 and sigma_w2/sigma_z2 overflow
        ["multi-fast", "--grid", "1e308 W"],
        ["trace", "--p0", "1e308 W"],
        ["compare", "--sigma-w2", "1e308"],
        ["multi-slow", "--sigma-w2", "1e308"],
        ["multi-fast", "--sigma-w2", "1e308"],
        ["trace", "--sigma-w2", "1e308"],
        # a replica count past experiments.MAX_REPLICAS, refused before any draw
        ["multi-slow", "--grid", "20dBm", "--horizon", "1", "--replicas", "1000000000000"],
        ["compare", "--grid", "20dBm", "--horizon", "1", "--replicas", "1000000000000"],
    ],
    ids=" ".join,
)
def test_non_finite_input_is_a_usage_error(tmp_path, capsys, argv):
    # refused with a message before any table is written: no traceback, no
    # all-nan or all-zero CSV with exit 0; a finite value whose square
    # overflows or is 0, and an empty list, are refused the same way
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["multi-slow", "--grid", "20 dBm"],
        ["multi-fast", "--grid", "20 dBm"],
        ["trace"],
    ],
    ids=" ".join,
)
def test_a_disturbance_power_whose_gains_overflow_is_refused_by_name(tmp_path, capsys, argv):
    # sigma_w2/sigma_z2 = 1e-313 is subnormal and k = -inf: refused, not an
    # INF gain column with exit 0
    out = tmp_path / "x.csv"
    small = ["--sigma-w2", "1e-320", "--horizon", "5", "--replicas", "3", "--out", str(out)]
    assert main([*argv, *small]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "gains k = -inf" in err and "sigma_w2/sigma_z2 = 9.999888672e-314" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, config",
    [("1,1 W", False), ("2,1 dBm", False), ("2,1 dBm", True)],
    ids=["equal", "decreasing", "decreasing-in-config"],
)
def test_a_grid_out_of_order_is_refused_by_the_recipe(tmp_path, capsys, grid, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f'grid: "{grid}"\n')
    out = tmp_path / "x.csv"
    source = ["--config", str(cfg)] if config else ["--grid", grid]
    assert main(["compare", *source, "--out", str(out)]) == EXIT_USAGE
    assert "power grid must be strictly increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spaced, config",
    [("20 dBm", False), ("0.1 W", False), ("0:40:5 dBm", False), ("0:40:5 dBm", True)],
    ids=["dbm", "watts", "range", "range-in-config"],
)
def test_a_grid_reads_the_same_without_a_space_before_its_unit(tmp_path, monkeypatch, spaced,
                                                                 config):
    outputs = []
    for name, grid in (("spaced", spaced), ("joined", spaced.replace(" ", ""))):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        (tmp_path / name / "run.yaml").write_text(f'grid: "{grid}"\n')
        source = ["--config", "run.yaml"] if config else ["--grid", grid]
        assert main(["compare", *source, "--horizon", "10", "--replicas", "2",
                     "--out", "run.csv"]) == EXIT_OK
        outputs.append((tmp_path / name / "run.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_a_grid_range_of_too_many_points_is_refused_at_once(tmp_path, capsys):
    # a 1e300-point range is refused by its count, not built until memory runs out
    started = time.perf_counter()
    out = tmp_path / "x.csv"
    assert main(["compare", "--grid", "0:1:1e-300 dBm", "--out", str(out)]) == EXIT_USAGE
    assert time.perf_counter() - started < 1.0
    assert "grid range '0:1:1e-300' holds more than 10000 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, held",
    [(["--m0", "99999999999999999999"], "10000 x 99999999999999999999"),
     (["--realizations", "100000000"], "100000000 x 10")],
    ids=["m0", "realizations"],
)
def test_a_selection_sweep_too_large_to_hold_is_refused_at_once(tmp_path, capsys, argv, held):
    # refused by its size before any draw, not drawn until memory runs out
    # (or, for the M0, after building one substream per plant)
    started = time.perf_counter()
    out = tmp_path / "x.csv"
    assert main(["select-sweep", *argv, "--out", str(out)]) == EXIT_USAGE
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert f"realizations x largest M0 = {held} exceeds" in err
    assert f"bound of {MAX_SELECTION_VALUES} values" in err
    assert "Traceback" not in err
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000, 1000)")


@pytest.mark.parametrize(
    "name, argv, held",
    [("run_selection_sweep", ["select-sweep", "--realizations", "300", "--m0", "2,7"],
      "with 300 realizations of 7 plants"),
     ("run_trace", ["trace", "--replicas", "40"], "with 40 replicas"),
     ("parse_config", ["select-sweep"], "while reading settings")],
    ids=["select-sweep", "trace", "settings"],
)
def test_running_out_of_memory_names_what_the_run_holds(tmp_path, capsys, monkeypatch, name,
                                                        argv, held):
    # select-sweep reads no replica count, and a MemoryError can come before
    # the settings are resolved: neither may name replicas it never held
    monkeypatch.setattr(cli, name, _out_of_memory)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"wncs {argv[0]}: error: out of memory {held}: Unable to allocate 7.45 GiB for an "
        "array with shape (1000000, 1000)"
    ]
    assert not out.exists()


def test_a_selection_sweep_on_a_long_grid_is_not_refused(tmp_path):
    # it holds 4200 x 2 floors whatever its 4001 grid points; counted as
    # 4200 x (2 + 4001) values, more than the bound, it was refused
    out = tmp_path / "x.csv"
    argv = ["--grid", "0:40:0.01dBm", "--m0", "2", "--realizations", "4200", "--out", str(out)]
    assert main(["select-sweep", *argv]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 4001


@pytest.mark.parametrize(
    "grid, config",
    [("20 dBm,30 dBm", False), ("20dBm, 30dBm", False), ("[20 dBm, 30 dBm]", True),
     ("[20, 30]", True)],
    ids=["flag-spaced", "flag-joined", "config-list", "config-bare-list"],
)
def test_a_grid_with_a_unit_per_number_is_refused_with_the_grammar(tmp_path, capsys, grid,
                                                                     config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"grid: {grid}\n")
    out = tmp_path / "x.csv"
    source = ["--config", str(cfg)] if config else ["--grid", grid]
    assert main(["compare", *source, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "one string with one unit after its last number, e.g. '20,30 dBm'" in err
    assert not out.exists()


def test_an_snr_budget_that_overflows_is_refused_by_name(tmp_path, capsys):
    # refused for the ratio it overflows, not blamed on the channel magnitude
    assert main(["compare", "--grid", "1e308 W", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert "SNR budget p0/sigma_z2 = 1e+308/1e-07 overflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "recipe, flag, value, rest",
    [
        ("trace", "--a-c", "-0.5,0.6", []),
        ("multi-slow", "--k-common", "-1e2", ["--grid", "20 dBm"]),
        ("compare", "--sigma-z2", "-40dBm", ["--grid", "20 dBm"]),
    ],
    ids=["trace", "multi-slow", "compare"],
)
def test_a_value_that_starts_with_a_minus_follows_its_flag(tmp_path, monkeypatch, recipe,
                                                           flag, value, rest):
    # argparse alone reads only '-1' and '-0.5' as values; here every number
    # its setting parses may follow its flag, as in the --flag=value form
    small = ["--horizon", "10", "--replicas", "2", *rest, "--out", "run.csv"]
    outputs = []
    for name, pair in (("spaced", [flag, value]), ("joined", [f"{flag}={value}"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([recipe, *pair, *small]) == EXIT_OK
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("run.csv", "run.csv.meta.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["--seed", "-1"], "seed must be >= 0 (got -1)"),
        (["--horizon", "262145"], "horizon must be between 1 and 262144 (got 262145)"),
        (["--replicas", str(MAX_REPLICAS + 1)],
         f"replicas must be between 1 and {MAX_REPLICAS} (got {MAX_REPLICAS + 1})"),
    ],
    ids=["seed", "horizon", "replicas"],
)
def test_a_setting_out_of_range_is_refused_by_name(tmp_path, capsys, argv, refusal):
    out = tmp_path / "x.csv"
    assert main(["select-sweep", *argv, "--realizations", "10", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert refusal in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # (1 - eta a^2) sigma_h2 underflows to 0: plant 1's floor is inf
        (["--sigma-h2", "5e-324,4e-4"], EXIT_INFEASIBLE, "no feasible grid point"),
        # 2 sigma_h2 overflows: E|h| and so every design would be nan
        (["--sigma-h2", "1e308,4e-4", "--grid", "20 dBm"], EXIT_USAGE,
         "channel power is too large: 2 sigma_h2 overflows (got 1e+308)"),
    ],
    ids=["tiny", "huge"],
)
def test_a_channel_power_past_the_float_range_is_no_traceback(tmp_path, capsys, argv, code,
                                                              message):
    out = tmp_path / "x.csv"
    small = ["--horizon", "10", "--replicas", "2", "--out", str(out)]
    assert main(["multi-fast", *argv, *small]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    if code == EXIT_INFEASIBLE:
        assert all(cell == "INF" for row in out.read_text().splitlines()[1:]
                   for cell in row.split(",")[1:])
    else:
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["multi-slow", "--grid", "300dBm"], EXIT_USAGE),
        (["multi-fast", "--grid", "300dBm"], EXIT_USAGE),
        (["compare", "--grid", "300dBm"], EXIT_USAGE),
        (["multi-slow", "--grid", "300dBm", "--g-common", "1"], EXIT_USAGE),
        (["multi-slow", "--grid", "300dBm", "--k-common=-1"], EXIT_USAGE),
        (["trace", "--p0", "300dBm"], EXIT_OK),
    ],
    ids=["multi-slow", "multi-fast", "compare", "g-common", "k-common", "trace"],
)
def test_a_disturbance_ratio_that_underflows_to_0_is_refused_by_name(tmp_path, capsys, argv,
                                                                    code):
    # sigma_w2/sigma_z2 = 5e-324 W / 10 W is 0.0: the designs that divide by
    # it refuse it by name, and trace, whose gains need no division, runs
    out = tmp_path / "x.csv"
    small = ["--sigma-w2", "5e-324", "--sigma-z2", "40dBm", "--horizon", "10", "--replicas", "2"]
    assert main([*argv, *small, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert "the disturbance-to-noise ratio sigma_w2/sigma_z2 is 0.0" in err
        assert not out.exists()


def test_a_shared_controller_factor_below_its_bound_is_refused_naming_the_bound(tmp_path,
                                                                               capsys):
    # 1e-13 is finite and nonzero: the refusal names the bound it misses
    out = tmp_path / "x.csv"
    assert main(["multi-slow", "--k-common", "1e-13", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "shared controller factor must be finite with |K| >= 1e-12 (got 1e-13)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, clash",
    [
        (["trace", "--a-c", "0.6,0.6000001"], "0.6 and 0.6000001 share the column label 'ac0.6'"),
        (["select-sweep", "--m0", "2,2"], "2 and 2 share the column label 'm2_avg_selected'"),
        (["compare", "--schemes", "bch7_4_qam16,bch7_4_qam16"],
         "'bch7_4_qam16' and 'bch7_4_qam16' share the column label 'bch7_4_qam16'"),
    ],
    ids=["trace", "select-sweep", "compare"],
)
def test_list_entries_that_share_a_column_are_refused(tmp_path, capsys, argv, clash):
    # two entries whose labels coincide would overwrite one column's data
    out = tmp_path / "x.csv"
    assert main([*argv, "--horizon", "10", "--replicas", "2", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert clash in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, channel",
    [
        ("--h 1e150,0.02 --grid '20 dBm' --k-common -1 --replicas 10 --horizon 20", "1e+150"),
        ("--h 1e70,0.02 --grid '20 dBm' --k-common=-1e10 --replicas 10 --horizon 20", "1e+70"),
    ],
)
def test_multi_slow_refuses_a_channel_the_design_overflows(tmp_path, capsys, argv, channel):
    # h^2 gamma0 (or h^2 k^2 SSR for --k-common) is finite here but its
    # square is not: refused by name, not a g1 = 0.0 row with INF shared cells
    out = tmp_path / "x.csv"
    assert main(["multi-slow", *shlex.split(argv), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"plant 1's channel magnitude {channel}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "recipe, text, key",
    [
        ("select-sweep", "m0: []", "m0"),
        ("trace", "a_c: []", "a_c"),
        ("trace", "horizon: 2.9", "horizon"),
        ("select-sweep", "m0: [2.7]", "m0"),
    ],
)
def test_config_file_value_is_refused_as_its_flag_is(tmp_path, capsys, recipe, text, key):
    # an empty list or a non-integral count, refused by name before any table
    # is written, as the flags --m0 , and --horizon 2.9 are
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text + "\n")
    out = tmp_path / "x.csv"
    assert main([recipe, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"setting {key} " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "recipe, text, flags",
    [
        ("multi-slow", "channels: 0.01", ["--h", "0.01"]),
        ("trace", "a_c: 0.5", ["--a-c", "0.5"]),
    ],
)
def test_config_file_scalar_is_a_one_item_list(tmp_path, recipe, text, flags):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text + "\n")
    small = ["--horizon", "20", "--replicas", "4"]
    by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert main([recipe, "--config", str(cfg), *small, "--out", str(by_file)]) == EXIT_OK
    assert main([recipe, *flags, *small, "--out", str(by_flag)]) == EXIT_OK
    assert by_file.read_bytes() == by_flag.read_bytes()
    configs = [json.loads((tmp_path / f"{p.name}.meta.json").read_text())["config"]
               for p in (by_file, by_flag)]
    for config in configs:
        del config["out"]
    assert configs[0] == configs[1]


def test_shared_gain_columns(tmp_path):
    out = tmp_path / "shared.csv"
    code = run_main(
        ["multi-slow", "--grid", "20:20:1 dBm", "--horizon", "40", "--replicas", "4",
         "--g-common", "150", "--k-common", "-0.2", "--out", str(out)]
    )
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0].split(",")
    assert any(c.startswith("sharedG_k") for c in header)
    assert "sharedG_j_total" in header
    assert any(c.startswith("sharedK_g") for c in header)
    assert "sharedK_j_total" in header


def test_verify_command_passes():
    assert run_main(["verify"]) == EXIT_OK


def test_verify_coded_link_check_catches_a_wrong_exact_rate(monkeypatch):
    # at 200k words, a word success 3 % low is 3 to 32 standard errors off
    exact = cli.word_success
    assert cli._check_coded_link()[0]
    monkeypatch.setattr(cli, "word_success", lambda *args: 0.97 * exact(*args))
    ok, detail = cli._check_coded_link()
    assert not ok, detail


def test_verify_codec_check_reads_the_library_gray_labels(monkeypatch):
    # natural binary labels still round-trip, but adjacent levels differ in
    # two bits from 1 to 2: the check must read the library's constellation
    assert cli._check_codecs()[0]
    monkeypatch.setattr(coded, "_gray_maps", lambda levels: (np.arange(levels),) * 2)
    ok, detail = cli._check_codecs()
    assert not ok and "Gray adjacency broken" in detail


@pytest.mark.parametrize("n, k, generator", [(6, 3, 0b1011), (7, 4, 0b1001)])
def test_verify_codec_check_catches_a_code_that_is_not_perfect(monkeypatch, n, k, generator):
    # the shortened (6, 3) Hamming code has distance 3 but misses the Hamming
    # bound; the (7, 4) code of x^3 + 1 meets the bound at distance 2
    monkeypatch.setattr(cli, "SCHEMES", {"odd": coded.CodingScheme("odd", n, k, generator, 4)})
    ok, detail = cli._check_codecs()
    assert not ok and "not a perfect single-error-correcting code" in detail


def test_verify_threshold_check_catches_a_wrong_floor(monkeypatch):
    # the knees come from the floors the sweeps gate on, so a floor 1 % high
    # moves the single-loop knee by 0.043 dB, past the 1e-3 dB tolerance
    floor = cli.snr_floor
    assert cli._check_thresholds()[0]
    monkeypatch.setattr(cli, "snr_floor", lambda *args: 1.01 * floor(*args))
    ok, detail = cli._check_thresholds()
    assert not ok, detail


#: (argv, exit code, CSV SHA-256, sidecar SHA-256) of small runs of each recipe
_PINNED = [
    ("trace --horizon 40 --replicas 4", EXIT_OK,
     "d659805efd387b5a0fbe53bea699216be195c8cee1c50abb35901d641d858a78",
     "677bb130e96f2d01cfdff417ff8b160c9be1eaa0d92ad6cf17802a6a91d16d42"),
    ("trace --a-c 0.6,3 --horizon 60 --replicas 4", EXIT_OK,
     "f586a5dd6d9832e0c5ed7a22d4ad1501e518d6775bcbba5e49d3c2cc67141d2f",
     "984944e1d02e04bec9eaa0021ce036fc9bdc79f2ca9e95e1f78b08224f3c8e2b"),
    ("compare --grid '0:20:10 dBm' --horizon 30 --replicas 8", EXIT_OK,
     "7efdb6474f691dc9b54f6c5319b13d4a16137b2f841b51b3c2d1ae8aeb5f6d64",
     "2b4785bb0854fd28b8514283cab041cefa0e06afbb1bd6a02d82197852b5ccc0"),
    ("compare --grid '-10:0:5 dBm' --horizon 20 --replicas 4", EXIT_INFEASIBLE,
     "27a1330e39e9ff31afd16c8c24b8e8661d71bbf5c1f6fef089d9a148e2201755",
     "16415163a290379bf321fc2fdb05254f52bb51dc5a1d88abbc03247a11cd87b9"),
    ("multi-slow --grid '0:4:2 dBm' --g-common 1000 --k-common -1 --horizon 30 --replicas 8",
     EXIT_OK,
     "bb9e7a1d3e34848723a77ef9587c27d38918962e702a0b00ab2de242a9b4d9ac",
     "78ca5d378ed7e4c88f739c9fd593e79a1d153065c46af89e87381ec9ec5f2cf5"),
    ("multi-fast --grid '8:12:2 dBm' --horizon 30 --replicas 8", EXIT_OK,
     "586e7e4b1a1737612e79b4c663b63b1747c222e68ee1b9c4270cf11b3fdc2fdf",
     "676253b0f67381cdefeb432e7846e8e397b22741515e2f1324cb7cba223340d7"),
    ("select-sweep --grid '0:10:5 dBm' --m0 2,3 --realizations 200", EXIT_OK,
     "a18303df6a5b0e69539cf8e160dc6cff8383243780c2a5b15df8988fa332ddfe",
     "bbe8a4b79670f9f745c7952641966eed21fbae0ecea8e283763e17a6f2498318"),
]


@pytest.mark.parametrize(
    "argv, code, csv_sha256, sidecar_sha256", _PINNED, ids=[row[0] for row in _PINNED]
)
def test_recipe_output_is_pinned_byte_for_byte(tmp_path, monkeypatch, argv, code,
                                               csv_sha256, sidecar_sha256):
    # small runs of every recipe, the INF cells below each knee and past the
    # divergence guard included; a relative --out keeps the sidecar's config
    # free of the temporary directory
    monkeypatch.chdir(tmp_path)
    assert main([*shlex.split(argv), "--out", "run.csv"]) == code
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("run.csv", "run.csv.meta.json")]
    assert digests == [csv_sha256, sidecar_sha256]


def _pinned_recipes():
    """(argv, output name, CSV digest) of each line of recipe_csv_sha256.txt."""
    for line in (Path(__file__).parent / "recipe_csv_sha256.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, digest, argv = line.split(maxsplit=2)
            yield pytest.param(argv.split(), name, digest, id=name)


@pytest.mark.parametrize("argv, name, digest", list(_pinned_recipes()))
def test_every_pinned_recipe_writes_its_csv_bytes(argv, name, digest, tmp_path, monkeypatch):
    # a relative --out, as CI passes it; the sidecar may gain keys and is not pinned
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", f"{name}.csv"]) == EXIT_OK
    assert hashlib.sha256(Path(f"{name}.csv").read_bytes()).hexdigest() == digest
