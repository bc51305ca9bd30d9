"""Every recipe's every numeric setting at its extremes, through the command line.

One table drives the whole class of boundary defects: each argv runs one
recipe on a tiny, one-point problem with one setting at an extreme, and
every run must end in a refusal by name, an infeasible grid or an honest
table.
"""
import math
import warnings

from wncs import cli
from wncs.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, INF_TOKEN
from wncs.experiments import MAX_SELECTION_VALUES

#: real-valued extremes: signed zeros, subnormals, the square roots of the
#: float range's ends, its ends, non-finite text, and either side of 1
REALS = ("0", "-0", "5e-324", "1e-320", "1e-154", "1e154", "1e308", "-1e308", "nan", "inf",
         "-inf", "-1", "0.9999999999999999", "1.0000000000000002")
POWERS = (*(f"{v} W" for v in REALS), "400 dBm", "-400 dBm", "3000 dBm", "-3000 dBm")
INTEGERS = ("0", "-1", "2.5")

#: every recipe's numeric flags and their extremes, beside the common ones
COMMON = {"--a": REALS, "--sigma-w2": REALS, "--sigma-z2": POWERS,
          "--horizon": (*INTEGERS, "262145"), "--replicas": INTEGERS, "--seed": INTEGERS}
OWN = {
    "trace": {"--p0": POWERS, "--h": REALS, "--a-c": REALS, "--x0": REALS},
    "compare": {"--grid": POWERS, "--h": REALS},
    "multi-slow": {"--grid": POWERS, "--h": tuple(f"{v},0.02" for v in REALS),
                   "--g-common": REALS, "--k-common": REALS},
    "multi-fast": {"--grid": POWERS, "--sigma-h2": tuple(f"{v},4e-4" for v in REALS)},
    "select-sweep": {"--grid": POWERS, "--m0": (*INTEGERS, str(MAX_SELECTION_VALUES)),
                     "--realizations": (*INTEGERS, str(MAX_SELECTION_VALUES)),
                     "--mean-gain": REALS},
}
#: a tiny problem: five steps, three replicas, one grid point
SMALL = {"--horizon": "5", "--replicas": "3"}
GRID = {"--grid": "20 dBm"}

#: runs that may exit 0 with every cell INF: a closed-loop factor far past 1
#: is an honest unstable trace, and its prediction is null
ALL_INF_ALLOWED = {("trace", "--a-c", "1e154")}


def _argvs():
    for recipe, own in OWN.items():
        base = {**SMALL, **(GRID if "--grid" in own else {})}
        for flag, values in {**COMMON, **own}.items():
            for value in values:
                # --flag=value, so that a value starting with '-' is never read as a flag
                settings = {**base, flag: value}
                yield recipe, flag, value, [recipe, *(f"{f}={v}" for f, v in settings.items())]


def _faults(recipe, flag, value, code, csv):
    """What is wrong with one run's exit code and table, as a list of strings."""
    if code not in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE):
        return [f"exit {code}"]
    if code == EXIT_USAGE:
        return []
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    cells = [cell for row in rows for cell in row[1:]]
    faults = []
    if any(cell.lower() == "nan" for cell in cells):
        faults.append("a nan cell")
    if (code == EXIT_OK and all(cell in (INF_TOKEN, "0.0") for cell in cells)
            and (recipe, flag, value) not in ALL_INF_ALLOWED):
        faults.append("exit 0 with every cell INF or 0.0")
    for i, name in enumerate(header):
        if name.endswith("_sim") and f"{name[:-4]}_pred" in header:
            pred = header.index(f"{name[:-4]}_pred")
            for row in rows:
                if row[i] == INF_TOKEN and math.isfinite(float(row[pred])):
                    faults.append(f"{name} INF beside a finite {header[pred]} at {row[0]}")
    return faults


def test_every_setting_at_its_extremes_is_refused_or_runs_honestly(tmp_path, capsys):
    faults, runs = [], 0
    for run, (recipe, flag, value, argv) in enumerate(_argvs()):
        csv = tmp_path / f"{run}.csv"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([*argv, f"--out={csv}"])
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the fault reported
            faults.append(f"{' '.join(argv)}: raised {type(exc).__name__}: {exc}")
            continue
        faults += [f"{' '.join(argv)}: {fault}"
                   for fault in _faults(recipe, flag, value, code, csv)]
        runs += 1
    capsys.readouterr()
    assert not faults, "\n".join(faults)
    assert runs > 400
