"""Workload child: runs passes over one workload's operations and verifies them.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1.  A pass runs
every operation of the workload once, in order, one at a time (a closed
loop with one client).  Passes repeat until another pass would overrun
``--seconds``, with at least ``MIN_PASSES``.  With ``--trace 1`` each
operation runs twice per pass, untraced and traced, so one run gives both
the per-layer figures and the tracing overhead.  The result goes to
``--result`` as JSON, the spans of the traced executions to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import Tracer, pass_metrics

MIN_PASSES = 2
NEGATIVE_SLACK = "inequalities.sica_check.negative"
MAX_REPORTED_FAILURES = 20


def run_pass(workload: workloads.Workload, index: int, paired: bool = False) -> dict:
    """Run, time and verify every operation once.

    ``paired`` runs each operation twice back to back, untraced and traced
    (the order alternates between passes), so the tracing overhead is
    measured on adjacent executions and the traced one feeds the layers.
    """
    tracer = Tracer() if paired else None
    untraced: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    startup = 0.0
    rss_mb = 0.0
    start = time.perf_counter()
    if not paired:
        modes = (False,)
    else:
        modes = (False, True) if index % 2 == 0 else (True, False)
    for i, op in enumerate(workload.ops):
        for trace_it in modes:
            latency, output, problems = run_op(
                op, tracer if trace_it else None, f"{index}:{i}", workload.in_process
            )
            if problems:
                failures.append(f"pass {index} {op.name}: " + "; ".join(problems))
            (traced if trace_it else untraced).append(latency)
            if isinstance(output, workloads.CliRun):
                rss_mb = max(rss_mb, output.rss_mb)
                if not trace_it and output.in_run_s is not None:
                    startup += latency - output.in_run_s
    return {
        "wall_s": time.perf_counter() - start,
        "latencies": untraced,
        "overhead_s": sum(traced) - sum(untraced) if paired else None,
        "failures": failures,
        "startup_s": startup,
        "rss_mb": rss_mb,
        "layers": pass_metrics(tracer.spans, tracer.counters) if paired else None,
        "spans": tracer.spans if paired else [],
    }


def run_op(op, tracer: Tracer | None, op_id: str, in_process: bool):
    """One timed execution of ``op``, then its verification."""
    restore = tracer.install() if tracer and in_process else None
    negative_before = tracer.counters[NEGATIVE_SLACK] if tracer else 0
    span = tracer.span(f"op:{op.name}", op=op_id) if tracer else nullcontext()
    try:
        with span:
            t0 = time.perf_counter()
            try:
                output, error = op.run(tracer), None
            except Exception as exc:  # an operation that raises counts as failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
    finally:
        if restore:
            restore()
    problems = [error] if error else op.check(output)
    if tracer and tracer.counters[NEGATIVE_SLACK] > negative_before:
        problems.append("a finite-run identity check returned a negative slack")
    return latency, output, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="side file for the traced spans")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    workload = workloads.build(
        args.workload, args.seed, workloads.SIZES[args.size], args.workdir, env
    )
    if workload.in_process:
        # Untimed: load lazily imported code and fill allocator pools, which
        # a user of a long-lived process pays once.
        run_pass(workloads.build(args.workload, args.seed, workloads.SIZES["smoke"],
                                 args.workdir, env), -1)
    passes: list[dict] = []
    spans: list[list] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes), paired=bool(args.trace)))
        offset = len(spans)
        spans += [
            [name, s, e, None if parent is None else parent + offset, op]
            for name, s, e, parent, op in passes[-1].pop("spans")
        ]
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall_s"] > args.seconds:
            break

    if args.spans and spans:
        with open(args.spans, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    failures = [f for p in passes for f in p["failures"]]
    in_process_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "attempted": sum(len(p["latencies"]) * (2 if args.trace else 1) for p in passes),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "walls": [p["wall_s"] for p in passes],
        "latencies": [lat for p in passes for lat in p["latencies"]],
        "pairs_per_pass": sum(op.pairs for op in workload.ops),
        "startup_s": [p["startup_s"] for p in passes] if not workload.in_process else [],
        "peak_rss_mb": (
            in_process_rss if workload.in_process else max(p["rss_mb"] for p in passes)
        ),
        "overhead_s": [p["overhead_s"] for p in passes if args.trace],
        "layers": [p["layers"] for p in passes if args.trace],
    }
    args.result.write_text(json.dumps(result))
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
