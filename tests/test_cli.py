"""Command-line surface: units, grids, config layering, CSV contract, exits."""
import hashlib
import json
import math
import shlex

import numpy as np
import pytest

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
from wncs.experiments import SweepResult


def test_dbm_round_trip():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert watts_to_dbm(0.1) == pytest.approx(20.0, abs=1e-12)
    for dbm in (-40.0, 0.9691, 20.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)


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


def test_emit_csv_sidecar(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(_tiny_result(), str(path))
    sidecar = json.loads((path.with_suffix(".csv.meta.json")).read_text())
    assert sidecar["x_name"] == "p0_w"
    assert sidecar["series"] == ["j", "k"]
    assert sidecar["rows"] == 2
    assert sidecar["meta"]["feasible_points"] == 1
    assert "package_version" in sidecar


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


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("a: 1.4\nwhat_is_this: 1\n")
    assert run_main(["compare", "--config", str(cfg)]) == EXIT_USAGE


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
     "a0574a1b3b55014c528c080df473ea092b914d39e028c74a204e138e25d5f22a"),
    ("compare --grid '-10:0:5 dBm' --horizon 20 --replicas 4", EXIT_INFEASIBLE,
     "27a1330e39e9ff31afd16c8c24b8e8661d71bbf5c1f6fef089d9a148e2201755",
     "f34f3a2ffe6f20870e0745991c49a1008c3b102d35240c929b20dd840e794ca5"),
    ("multi-slow --grid '0:4:2 dBm' --g-common 1000 --k-common -1 --horizon 30 --replicas 8",
     EXIT_OK,
     "bb9e7a1d3e34848723a77ef9587c27d38918962e702a0b00ab2de242a9b4d9ac",
     "78ca5d378ed7e4c88f739c9fd593e79a1d153065c46af89e87381ec9ec5f2cf5"),
    ("multi-fast --grid '8:12:2 dBm' --horizon 30 --replicas 8", EXIT_OK,
     "586e7e4b1a1737612e79b4c663b63b1747c222e68ee1b9c4270cf11b3fdc2fdf",
     "6e2d1488f87f723480817798302fdcadda3370ea62a727f81405c5e17d921153"),
    ("select-sweep --grid '0:10:5 dBm' --m0 2,3 --realizations 200", EXIT_OK,
     "a18303df6a5b0e69539cf8e160dc6cff8383243780c2a5b15df8988fa332ddfe",
     "725c2c07671ba8b2d082520542aea2233112c21a9a455260ce0a84e26dd5bdef"),
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
