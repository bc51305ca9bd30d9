"""One workload in its own process: ``run.py`` starts this file, never imports it.

Untraced, it repeats the workload's pass until ``--seconds`` have gone by
(at least once) and times each pass; no instrumentation is loaded.  Traced,
it installs the span tracer and runs one pass.  Either way it checks the
first pass's outputs, hashes every pass's outputs and writes a JSON report
to ``--report``.  The working directory is where the CLI workloads write
their CSVs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    import numpy
    import wncs

    # an installed copy must not stand in for the checkout's sources
    expected = os.path.realpath(os.path.join(args.src, "wncs", "__init__.py"))
    if os.path.realpath(wncs.__file__) != expected:
        print(f"imported {wncs.__file__}, expected {expected}", file=sys.stderr)
        return 1

    from workloads import WORKLOADS, CheckResult, latency_summary, median_pass_s, plain_call

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    call = plain_call
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.call

    pass_s, digests, latencies = [], [], []  # latencies: one array per pass
    attempted = failed = 0
    errors: list[str] = []
    check = None
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        result = workload.run_pass(call)
        pass_s.append(time.perf_counter() - start)
        attempted += result.attempted
        failed += result.failed
        errors += result.errors
        latencies.append(result.latencies)
        digests.append(result.digest)
        if check is None:
            hashes = result.hashes
            check = workload.check() if not result.failed else CheckResult(
                ["outputs not checked: an operation failed"], 0, 0.0)
        if tracer is not None or time.perf_counter() >= deadline:
            break
    # before the statistics below, which are not part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    report = {
        "pass_s": pass_s,
        "wall_s": median_pass_s(latencies),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "problems": check.problems,
        "work_per_pass": check.work,
        "sim_pred_gap": check.sim_pred_gap,
        "digests": digests,
        "hashes": hashes,
        "latency": latency_summary(latencies),
        "dense_bytes": workload.dense_bytes,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(args.report), "spans.json"))
        total, calls = tracer.totals()
        report["trace"] = {
            "self": tracer.self_times(),
            "total": total,
            "calls": dict(calls),
            "counts": dict(tracer.counts),
            "notes": tracer.notes,
            "spans": len(tracer.spans),
        }
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
