"""belllab benchmark: one command, one workload, every metric by name.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see bench/README.md for why each exists):

* ``cli-cold``        the 7 CLI scenarios, each a fresh process
* ``mc-bulk``         5 in-process Monte Carlo scenarios, one 4e6-pair block each
* ``lhv-sweep-fine``  the LHV sweep at a pi/720 grid: 1,442 blocks of 20,000 pairs
* ``search-lp``       4 falsification grid searches at 1 degree and 200 LPs

This process is the only source of load.  It measures set-up (fresh
interpreters importing ``belllab.cli``), then starts one workload child
(``worker.py``) with BLAS/OpenMP threads pinned to 1 and waits for it.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is run from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
sys.path.insert(0, str(BENCH_DIR))

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
WORKLOADS = ("cli-cold", "mc-bulk", "lhv-sweep-fine", "search-lp")
SIZES = ("full", "smoke")
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPS = 5
IMPORTTIME_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics: times and counts are per pass over the workload's
# operations (median over passes); setup.import.* are per import.
LAYER_UNITS = {
    "setup.import.numpy_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.belllab_s": "s",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "cli.run_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "B",
    "quantum.pair_uniforms.calls": "count",
    "quantum.pair_uniforms.self_s": "s",
    "quantum.pair_uniforms.bytes_computed": "B",
    "quantum.sample_pairs.self_s": "s",
    "realism.assign.self_s": "s",
    "realism.generate_block.calls": "count",
    "realism.generate_block.self_s": "s",
    "realism.block_pairs_mean": "pairs",
    "core.Block.calls": "count",
    "core.Block.self_s": "s",
    "core.OutcomeSequence.calls": "count",
    "core.OutcomeSequence.self_s": "s",
    "core.correlate.calls": "count",
    "core.correlate.self_s": "s",
    "core.correlate.bytes_computed": "B",
    "inequalities.sica_check.calls": "count",
    "inequalities.sica_check.self_s": "s",
    "inequalities.falsification_search.self_s": "s",
    "inequalities.search.points": "count",
    "inequalities.lp.calls": "count",
    "inequalities.lp.self_s": "s",
    "inequalities.lp.nit": "count",
    "relativity.values.calls": "count",
    "relativity.values.self_s": "s",
    "relativity.values.defined_ratio": "ratio",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT_DIR)
    return env


def run_child(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own session; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True,
                            **kwargs)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(reps: int, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing belllab.cli and exiting.

    One untimed import first writes the bytecode caches, which users pay once.
    """
    times = []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        done = run_child([sys.executable, "-c", "import belllab.cli"],
                         deadline - time.perf_counter(),
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError(f"import belllab.cli failed: {done.stderr.decode()[-500:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and belllab's own modules.

    numpy and scipy count the cumulative time of each outermost import of
    the package (what importing it costs, its dependencies included);
    belllab counts only the self time of its own modules.
    """
    # Lines come children first; a line adopts the pending lines one level deeper.
    pending: dict[int, list] = {}
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cum_us = int(match.group(1)), int(match.group(2))
        depth, name = len(match.group(3)), match.group(4)
        node = (depth, name, self_us, cum_us, pending.pop(depth + 2, []))
        pending.setdefault(depth, []).append(node)

    totals = {"numpy": 0.0, "scipy": 0.0, "belllab": 0.0}

    def walk(node, outer: frozenset) -> None:
        _, name, self_us, cum_us, children = node
        top = name.split(".")[0]
        if top == "belllab":
            totals["belllab"] += self_us / 1e6
        elif top in totals and top not in outer:
            totals[top] += cum_us / 1e6
        for child in children:
            walk(child, outer | {top})

    for roots in pending.values():
        for root in roots:
            walk(root, frozenset())
    return totals


def measure_imports(reps: int, deadline: float) -> dict[str, float]:
    runs = []
    for _ in range(reps):
        done = run_child([sys.executable, "-X", "importtime", "-c", "import belllab.cli"],
                         deadline - time.perf_counter(),
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != 0:
            raise BenchError("import belllab.cli failed under -X importtime")
        runs.append(parse_importtime(done.stderr.decode()))
    return {f"setup.import.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}


def _read_first(path: Path, pattern: str) -> str | None:
    try:
        match = re.search(pattern, path.read_text(), re.MULTILINE)
    except OSError:
        return None
    return match.group(1).strip() if match else None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        return _read_first(ROOT / ".git" / "packed-refs", rf"^(\w+) {re.escape(name)}$")
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(args) -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first(cpuinfo, r"^model name\s*:(.*)$"),
        "last_level_cache": _read_first(cpuinfo, r"^cache size\s*:(.*)$"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "child_env": THREAD_ENV,
        "bytes": "byte counts are computed from array sizes, not measured; "
                 "no bandwidth ratio is reported",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Turn SIGTERM into SystemExit, so the child's process group is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "belllab" / "cli.py").is_file():
        print(f"bench: no belllab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    smoke = args.size == "smoke"
    try:
        if args.trace:
            metrics = measure_imports(1 if smoke else IMPORTTIME_REPS, deadline)
        else:
            metrics = {"setup_s": measure_setup(1 if smoke else SETUP_REPS, deadline)}
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
            result_path = Path(workdir) / "result.json"
            cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size, "--workdir", workdir,
                   "--result", str(result_path),
                   "--spans", str(OUT_DIR / f"spans-{tag}.jsonl")]
            done = run_child(cmd, deadline - time.perf_counter(), stdout=sys.stderr)
            if done.returncode != 0 or not result_path.exists():
                raise BenchError(f"workload child exited with code {done.returncode}")
            worker = json.loads(result_path.read_text())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics.update(layer_metrics(worker))
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        metrics.update(end_to_end_metrics(worker))
        units = END_TO_END_UNITS
        report_extras(worker)

    info = fingerprint(args)
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"fingerprint": info, "metrics": metrics, "worker": worker}, indent=1)
    )
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print("fingerprint " + json.dumps(info))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def end_to_end_metrics(worker: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(worker["walls"]),
        "op_p50_s": statistics.median(worker["latencies"]),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def report_extras(worker: dict) -> None:
    """Lines for a reader that the JSON's metrics leave out.

    op_p90_s appears only with at least ten samples beyond it; pairs_per_s
    only where the workload draws pairs.
    """
    latencies = worker["latencies"]
    print(f"ops: {worker['attempted']} attempted, {worker['failed']} failed "
          f"(ops_failed = {worker['failed']}/{worker['attempted']})")
    print(f"op latency samples: {len(latencies)}")
    if len(latencies) >= 2:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        beyond = sum(lat > p90 for lat in latencies)
        if beyond >= 10:
            print(f"op_p90_s = {p90!r} s ({beyond} samples beyond)")
    op_time = sum(latencies)
    passes = len(worker["walls"])
    if worker["pairs_per_pass"] and op_time > 0:
        rate = worker["pairs_per_pass"] * passes / op_time
        print(f"pairs_per_s = {rate!r} 1/s ({worker['pairs_per_pass']} pairs per pass)")


def layer_metrics(worker: dict) -> dict[str, float]:
    from tracer import median_metrics

    metrics = median_metrics(worker["layers"])
    metrics["cli.startup_s"] = (
        statistics.median(worker["startup_s"]) if worker["startup_s"] else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(worker["overhead_s"])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
