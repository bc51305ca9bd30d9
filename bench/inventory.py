"""One-shot inventory: wall time and peak RSS of every recipe at its defaults.

    python3 bench/inventory.py

Informational only, not a benchmark workload and not gated.  It runs, once
each and each in a fresh subprocess (one-thread BLAS/OpenMP pools, package
from ``src``): the tier-1 suite, ``wncs verify``, the five recipes at their
defaults, and the 200k-replica fast-fading simulation, which together make
the baseline table of ROADMAP.md.  ``verify`` is not a workload because its
~5.4 GB peak crowds a shared 7-8 GB machine and ``mc-wide`` measures the
same mechanism at a quarter of the size.  The table is printed and written
to ``bench/.work/inventory.json``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from run import ROOT, WORK, child_env

FAST_200K = (
    "from wncs.experiments import ExperimentSpec, run_multi_sweep\n"
    "from wncs.model import PlantParams\n"
    "spec = ExperimentSpec(plant=PlantParams(a=1.5, sigma_w2=0.1), sigma_z2=1e-7,\n"
    "                      powers_w=(0.1,), horizon=500, replicas=200000, seed=0)\n"
    "run_multi_sweep(spec, ((1, 1e-4),), regime='fast')\n"
)

CASES = (
    ("tier-1 suite", [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                      "-p", "no:cacheprovider", str(ROOT / "tests")]),
    ("wncs verify", [sys.executable, "-m", "wncs.cli", "verify"]),
    *((f"wncs {recipe} (default)", [sys.executable, "-m", "wncs.cli", recipe, "--out", f"{recipe}.csv"])
      for recipe in ("compare", "multi-fast", "multi-slow", "trace", "select-sweep")),
    ("fast-fading sim, 200k x 500 (run_multi_sweep)", [sys.executable, "-c", FAST_200K]),
)


def measure(cmd: list[str], cwd, env) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one fresh subprocess."""
    with open(os.devnull, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=sink, stderr=sink)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main() -> int:
    workdir = WORK / "inventory"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    rows = []
    print("| what | exit | wall | peak RSS |\n|---|---|---|---|")
    for name, cmd in CASES:
        wall, rss, code = measure(cmd, workdir, env)
        rows.append({"case": name, "exit": code, "wall_s": wall, "peak_rss_mb": rss})
        print(f"| {name} | {code} | {wall:.2f} s | {rss:.0f} MB |", flush=True)
    (workdir.parent / "inventory.json").write_text(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
