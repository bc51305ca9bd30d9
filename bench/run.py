"""wncs benchmark: one workload, end-to-end or per-layer metrics, one JSON line.

    python3 bench/run.py --workload mc-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from its ``src``
directory.  Each workload runs in a fresh single-process subprocess with
BLAS/OpenMP pools held to one thread (``child.py``).

``--trace 0`` measures set-up (several fresh interpreters importing
``wncs``, median), then repeats the workload's pass for ``--seconds`` with
no instrumentation and reports the end-to-end metrics.  ``--trace 1`` runs
the same untraced measurement, then one pass in a second subprocess with the
span tracer installed (``tracer.py``), and reports the per-layer metrics,
the tracing overhead (traced pass minus the untraced median) and whether the
traced outputs are byte-identical to the untraced ones.

Every run checks the outputs (see ``workloads.py``): expected exit codes,
simulations within 2 % of their finite-horizon expectation, allocations
that respect floors and spend the budget, and identical output hashes across
passes, across the traced and untraced runs, and across earlier runs of the
same code and seed in this checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a fuller record, with the
environment, goes to ``bench/.work/<workload>-seed<n>-trace<t>/result.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

#: layers whose self time should own each workload, by prediction
OWNERS = {
    "mc-wide": ("fading", "experiments"),
    "coded-compare": ("coded",),
    "design-sweep": ("slow_control", "fast_control", "rootfind"),
}
#: the package modules that do timed work (``model`` does none of its own)
LAYERS = ("cli", "experiments", "fading", "slow_control", "fast_control", "rootfind", "coded")
SETUP_RUNS = 5
#: the whole run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
PROBE = "import wncs, wncs.cli; print(wncs.__file__, flush=True)"
class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(env: dict[str, str], cwd: Path, deadline: float) -> list[float]:
    """Interpreter start to ``wncs`` imported, in fresh processes.

    One uncounted start first fills the bytecode cache, which users also
    have warm; then the median of ``SETUP_RUNS`` starts is reported.
    """
    expected = str((SRC / "wncs" / "__init__.py").resolve())
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        watchdog = threading.Timer(remaining(deadline), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or os.path.realpath(line) != expected:
            raise BenchError(f"set-up probe imported {line!r} (exit {proc.returncode}), expected {expected}")
        if i:
            times.append(elapsed)
    return times


def run_child(args, traced: bool, env: dict[str, str], workdir: Path, deadline: float) -> dict:
    workdir.mkdir(parents=True)
    report = workdir / "report.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--src", str(SRC), "--report", str(report)]
    if traced:
        cmd.append("--traced")
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=remaining(deadline))
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload subprocess still running at the {DEADLINE_S:.0f} s deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"workload subprocess exited {proc.returncode}:\n{tail}")
    return json.loads(report.read_text())


def code_digest() -> str:
    """SHA-256 over the package and benchmark sources: what "the same code" means."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_rerun(key: str, code: str, digest: str) -> list[str]:
    """Compare this run's output digest with earlier runs of the same code and seed."""
    registry_path = WORK / "digests.json"
    registry = json.loads(registry_path.read_text()) if registry_path.exists() else {}
    seen = registry.setdefault(key, {}).setdefault(code, digest)
    if seen != digest:
        return [f"outputs differ from an earlier run of the same code and seed ({seen[:12]} vs {digest[:12]})"]
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, registry_path)
    return []


def llc_bytes() -> int | None:
    """Largest CPU cache reported by the kernel, in bytes."""
    sizes = []
    for size_file in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size_file.read_text().strip()
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KM")) * scale)
    return max(sizes, default=None)


def environment(report: dict, code: str) -> dict:
    llc = llc_bytes()
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    dense = report["dense_bytes"]
    sizing = "LLC size unknown"
    if llc:
        # mc-wide's peak RSS is about seven of its dense arrays
        sizing = (
            f"the 4x-LLC rule asks for {4 * llc} B per array; this workload's dense arrays are "
            f"{dense} B (computed), {'above' if dense >= 4 * llc else 'below'} it. It cannot be met "
            f"here: seven such arrays need {7 * 4 * llc / 2**30:.1f} GiB, this machine has "
            f"{mem / 2**30:.1f} GiB"
        )
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit or "unavailable (not a git checkout)",
        "code_sha256": code,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": report["python"],
        "numpy": report["numpy"],
        "llc_bytes": llc,
        "mem_total_bytes": mem,
        "dense_array_bytes_computed": dense,
        "sizing_note": sizing,
    }


def end_to_end(setup: list[float], report: dict) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (report["wall_s"], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "work_per_s": (report["work_per_pass"] / report["wall_s"], "1/s"),
    }


def per_layer(workload: str, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    trace = traced["trace"]
    total, calls, counts, own = trace["total"], trace["calls"], trace["counts"], trace["self"]
    layer_self = {layer: sum(v for k, v in own.items() if k.split(".")[0] == layer) for layer in LAYERS}
    traced_wall = traced["pass_s"][0]
    words = counts.get("coded.words", 0)
    cli_workload = workload != "design-sweep"
    # per-call latency is a design-path metric; a CLI workload's calls are whole recipes
    latency = {"calls": 0, "p50_ms": 0.0, "p99_ms": 0.0} if cli_workload else untraced["latency"]
    m = {
        "cli.parse_s": (total.get("cli.parse", 0.0), "s"),
        "cli.emit_s": (total.get("cli.emit", 0.0), "s"),
        "cli.emit_bytes": (counts.get("cli.emit_bytes", 0), "bytes"),
        "experiments.replica_steps": (untraced["work_per_pass"] if cli_workload else 0, "count"),
        "experiments.sim_pred_gap": (untraced["sim_pred_gap"], "ratio"),
        "fading.draw_s": (total.get("fading.draw", 0.0), "s"),
        "fading.draw_bytes": (counts.get("fading.draw_bytes", 0), "bytes"),
        "fading.substreams": (counts.get("fading.substreams", 0), "count"),
        "coded.encode_s": (total.get("coded.encode", 0.0), "s"),
        "coded.modulate_s": (total.get("coded.modulate", 0.0), "s"),
        "coded.detect_s": (total.get("coded.detect", 0.0), "s"),
        "coded.decode_s": (total.get("coded.decode", 0.0), "s"),
        "coded.loop_self_s": (own.get("coded.loop", 0.0), "s"),
        "coded.words": (words, "count"),
        "coded.word_success": (counts.get("coded.words_ok", 0) / words if words else 0.0, "ratio"),
        "slow_control.alloc_s": (total.get("slow_control.alloc", 0.0), "s"),
        "slow_control.alloc_calls": (calls.get("slow_control.alloc", 0), "count"),
        "slow_control.shared_s": (total.get("slow_control.shared", 0.0), "s"),
        "fast_control.alloc_s": (total.get("fast_control.alloc", 0.0), "s"),
        "fast_control.alloc_calls": (calls.get("fast_control.alloc", 0), "count"),
        "rootfind.calls": (calls.get("rootfind.bisect", 0), "count"),
        "rootfind.residual_evals": (counts.get("rootfind.residual_evals", 0), "count"),
        "rootfind.s": (total.get("rootfind.bisect", 0.0), "s"),
        "design_ms.p50": (latency["p50_ms"], "ms"),
        "design_ms.p99": (latency["p99_ms"], "ms"),
        "design.calls": (latency["calls"], "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced["wall_s"], "s"),
        "trace.owner_share": (sum(layer_self[l] for l in OWNERS[workload]) / traced_wall, "ratio"),
        "trace.spans": (trace["spans"], "count"),
        "trace.dropped": (len(trace["notes"]), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "wncs" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'wncs'}; run from a wncs checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # a terminated benchmark still stops and waits for its workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        setup = [] if args.trace else measure_setup(env, workdir, deadline)
        untraced = run_child(args, False, env, workdir / "untraced", deadline)
        traced = run_child(args, True, env, workdir / "traced", deadline) if args.trace else None
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    code = code_digest()
    problems = list(untraced["problems"]) + list(untraced["errors"])
    if len(set(untraced["digests"])) != 1:
        problems.append("outputs differ between passes of one run (determinism failure)")
    problems += check_rerun(f"{args.workload} seed={args.seed}", code, untraced["digests"][0])
    attempted, failed = untraced["attempted"], untraced["failed"]
    if traced is not None:
        problems += traced["problems"] + traced["errors"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["hashes"] != untraced["hashes"]:
            problems.append("traced outputs are not byte-identical to untraced ones")
        metrics = per_layer(args.workload, untraced, traced)
    else:
        metrics = end_to_end(setup, untraced)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(untraced, code),
        "passes_s": untraced["pass_s"],
        "setup_runs_s": setup,
        "work_per_pass": untraced["work_per_pass"],
        "sim_pred_gap": untraced["sim_pred_gap"],
        "operation_latency": untraced["latency"],
        "output_sha256": untraced["hashes"],
        "trace_notes": traced["trace"]["notes"] if traced else [],
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    env_rec = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced['pass_s'])} untraced pass(es), "
          f"{untraced['work_per_pass']} units of work per pass, sim/pred gap {untraced['sim_pred_gap']:.4g}")
    print(f"environment: nproc {env_rec['nproc']}, python {env_rec['python']}, numpy {env_rec['numpy']}, "
          f"LLC {env_rec['llc_bytes']} B, dense array {env_rec['dense_array_bytes_computed']} B (computed)")
    if args.workload == "design-sweep":
        lat = untraced["latency"]
        print(f"design latency over {lat['calls']} calls: p50 {lat['p50_ms']:.4f} ms, p99 {lat['p99_ms']:.4f} ms")
    for note in record["trace_notes"]:
        print(f"trace note: {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
