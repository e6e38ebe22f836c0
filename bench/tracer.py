"""In-memory span tracer that wraps belllab's public functions from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each traced function at the attribute its caller looks up (for example
``belllab.cli.generate_block``, which ``cli`` calls, and
``belllab.realism.pair_uniforms``, which the models call) and returns a
function that puts the originals back.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (or None) and ``op`` names the
benchmark operation it belongs to.  Spans stay in memory until ``dump``.
A span's self time is its duration minus the time its direct children
cover; children run on the same thread, so they never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Bytes written per pair by the arrays ``correlate`` allocates: two int64
# upcasts, their product, its cumulative sum, the int64 divisor range and
# the float64 partial means.  Computed from array sizes, not measured.
CORRELATE_BYTES_PER_PAIR = 6 * 8

class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self.op = op
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def adopt(self, path: "str | Path", parent: int) -> None:
        """Merge what a child process's tracer dumped, under span ``parent``.

        Span times come from ``time.perf_counter``, the system-wide
        monotonic clock on Linux, so they line up with this process's.
        """
        with open(path) as fh:
            dumped = json.load(fh)
        offset = len(self.spans)
        for name, start, end, child_parent, _ in dumped["spans"]:
            new_parent = parent if child_parent is None else child_parent + offset
            self.spans.append([name, start, end, new_parent, self.op])
        for key, value in dumped["counters"].items():
            self.counters[key] += value

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counters, args, kwargs, result)`` after."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced belllab function; returns the undo function."""
        import belllab.cli as cli
        import belllab.core as core
        import belllab.inequalities as inequalities
        import belllab.quantum as quantum
        import belllab.realism as realism
        import belllab.relativity as relativity

        targets = [
            (cli, "run", "cli.run", None),
            (quantum, "pair_uniforms", "quantum.pair_uniforms", _count_uniforms),
            (realism, "pair_uniforms", "quantum.pair_uniforms", _count_uniforms),
            (quantum.SingletSource, "sample_pairs", "quantum.sample_pairs", None),
            (realism.LHVSign, "assign", "realism.assign", None),
            (realism.CollapseSequential, "assign", "realism.assign", None),
            (cli, "generate_block", "realism.generate_block", _count_block),
            (relativity, "generate_block", "realism.generate_block", _count_block),
            (core.Block, "__init__", "core.Block", None),
            (core.OutcomeSequence, "__init__", "core.OutcomeSequence", None),
            (cli, "correlate", "core.correlate", _count_correlate),
            (relativity, "correlate", "core.correlate", _count_correlate),
            (cli, "sica_v3_check", "inequalities.sica_check", _count_slack),
            (cli, "sica_v4_check", "inequalities.sica_check", _count_slack),
            (inequalities, "falsification_search",
             "inequalities.falsification_search", None),
            (inequalities, "linprog", "inequalities.lp", _count_lp),
            (relativity.DefinabilityEngine, "values", "relativity.values",
             _count_values),
        ]
        undo = []
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            undo.append((owner, attr, original))
        formatters = dict(cli.FORMATTERS)
        for key, fn in formatters.items():
            cli.FORMATTERS[key] = self.wrap("cli.render", fn, _count_render)

        def restore() -> None:
            for owner, attr, original in undo:
                setattr(owner, attr, original)
            cli.FORMATTERS.update(formatters)

        return restore

    def dump(self, path: "str | Path") -> None:
        """Write spans and counters as one JSON object."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_uniforms(counters, args, kwargs, result) -> None:
    counters["quantum.pair_uniforms.bytes"] += result.nbytes


def _count_block(counters, args, kwargs, result) -> None:
    counters["realism.block_pairs"] += _arg(args, kwargs, 1, "block").count


def _count_correlate(counters, args, kwargs, result) -> None:
    counters["core.correlate.bytes"] += result.n * CORRELATE_BYTES_PER_PAIR


def _count_slack(counters, args, kwargs, result) -> None:
    counters["inequalities.sica_check.negative"] += result < 0


def _count_lp(counters, args, kwargs, result) -> None:
    counters["inequalities.lp.nit"] += result.nit


def _count_render(counters, args, kwargs, result) -> None:
    counters["cli.output_bytes"] += len(result.encode())


def _count_values(counters, args, kwargs, result) -> None:
    import numpy as np

    from belllab.core import pair_symbol
    from belllab.inequalities import V3_PAIRS, V4_PAIRS

    pairs = V4_PAIRS if len(_arg(args, kwargs, 1, "angles")) == 4 else V3_PAIRS
    defined = np.logical_and.reduce(
        [~np.isnan(result[pair_symbol(a, b)]) for a, b in pairs]
    )
    counters["relativity.values.points"] += defined.size
    counters["relativity.values.defined"] += int(np.count_nonzero(defined))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def pass_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's operations.

    Operation spans are named ``op:<name>``; their self time is the time
    no layer span covers, reported as ``trace.untraced_s``.
    """
    calls: defaultdict[str, int] = defaultdict(int)
    own: defaultdict[str, float] = defaultdict(float)
    untraced = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        if name.startswith("op:"):
            untraced += self_s
        else:
            calls[name] += 1
            own[name] += self_s
    blocks = calls["realism.generate_block"]
    points = counters.get("relativity.values.points", 0.0)
    return {
        "cli.main.self_s": own["cli.main"],
        "cli.run_s": own["cli.run"],
        "cli.render_s": own["cli.render"],
        "cli.output_bytes": counters.get("cli.output_bytes", 0.0),
        "quantum.pair_uniforms.calls": calls["quantum.pair_uniforms"],
        "quantum.pair_uniforms.self_s": own["quantum.pair_uniforms"],
        "quantum.pair_uniforms.bytes_computed": counters.get(
            "quantum.pair_uniforms.bytes", 0.0
        ),
        "quantum.sample_pairs.self_s": own["quantum.sample_pairs"],
        "realism.assign.self_s": own["realism.assign"],
        "realism.generate_block.calls": blocks,
        "realism.generate_block.self_s": own["realism.generate_block"],
        "realism.block_pairs_mean": (
            counters.get("realism.block_pairs", 0.0) / blocks if blocks else 0.0
        ),
        "core.Block.calls": calls["core.Block"],
        "core.Block.self_s": own["core.Block"],
        "core.OutcomeSequence.calls": calls["core.OutcomeSequence"],
        "core.OutcomeSequence.self_s": own["core.OutcomeSequence"],
        "core.correlate.calls": calls["core.correlate"],
        "core.correlate.self_s": own["core.correlate"],
        "core.correlate.bytes_computed": counters.get("core.correlate.bytes", 0.0),
        "inequalities.sica_check.calls": calls["inequalities.sica_check"],
        "inequalities.sica_check.self_s": own["inequalities.sica_check"],
        "inequalities.falsification_search.self_s": own[
            "inequalities.falsification_search"
        ],
        "inequalities.search.points": points,
        "inequalities.lp.calls": calls["inequalities.lp"],
        "inequalities.lp.self_s": own["inequalities.lp"],
        "inequalities.lp.nit": counters.get("inequalities.lp.nit", 0.0),
        "relativity.values.calls": calls["relativity.values"],
        "relativity.values.self_s": own["relativity.values"],
        "relativity.values.defined_ratio": (
            counters.get("relativity.values.defined", 0.0) / points if points else 0.0
        ),
        "trace.untraced_s": untraced,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes (counts repeat, so the median is exact)."""
    if not per_pass:
        return {}
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
