"""Pluggable counterfactual-assignment models.

A counterfactual model gives every emitted pair one complete +/-1 tuple
over all configured axes, so a value exists for each axis whether or not
that axis is the one actually measured (and the measured axis gets the
same value it would have gotten counterfactually).  Three models ship:

* ``LHVSign`` -- a local hidden-variable instance.  Each pair carries a
  uniform planar angle lam, a uint32 fraction of a turn; along an axis at
  angle t Alice gets +1 iff lam - t is in [-pi/2, pi/2) mod 2*pi (the sign
  of cos), Bob the negation.  Two-point functions are piecewise linear in
  the gap d = |t1 - t2|: 1 - 2d/pi on the same side, -(1 - 2d/pi) across.
* ``CollapseSequential`` -- a nonlocal, measure-P-first rule: P is a fair
  coin, then both Alice-side values are drawn independently from the state
  the P measurement prepares; the P coin (bit 0) and the E draw (the top 15
  bits) share a pair's column-0 lane, and E' reads its column-1 lane.
  Same-side correlations come out as cos(tE - tP) * cos(tE' - tP),
  generally nonzero, which is what makes the model useful as a violation
  witness.
* ``FileReplay`` -- verbatim +/-1 tuples from a text file, for adversarial
  and regression vectors.

Every model (and ``quantum.SingletSource``) has two methods over a span
of a block's pairs: ``assign`` gives the outcomes keyed by symbol, and
``disagreement_counts`` how many pairs have u != v on each axis pair,
which is all a product sum needs (``core.product_sum``).
``CollapseSequential`` counts from the Born tests alone: E is -P exactly
where the E draw keeps the sign -P that the P coin prepares, so <P,E> and
<P,E'> need no coin and <E,E'> is the XOR of the two tests; ``assign``
builds its outcomes from the same tests (``quantum.BornFlipModel``).
``LHVSign`` counts from the phases with one compare per half-turn start
(``lhv_disagreement_counts``); ``FileReplay`` compares its outcomes,
streaming its rows from the file.  ``generate_block`` assigns a block
``CHUNK_PAIRS`` pairs at a time and returns one ``OutcomeSequence`` per
axis; ``correlate_block`` and ``product_sums`` add up the counts over spans
of at most ``CHUNK_PAIRS`` pairs, cut at each checkpoint for the former.
Whether an axis's value needs Weak Realism (a primed axis is never the
measured one) is decided by the definability engine in ``relativity``.

The seeded models read their draws from the block's own Philox stream,
as ``SingletSource`` does (``quantum.pair_uniforms``): ``LHVSign`` one
32-bit lane of region 0 per pair, the same bits as that region's 16-bit
lanes 2i and 2i + 1, and ``CollapseSequential`` one 16-bit lane from each
of regions 0 and 1.  So an assignment is a pure function of (seed,
block), the same in any chunking, no two blocks share a draw, and blocks
can be generated in any order.
"""

from __future__ import annotations

import itertools
import math
import operator
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Block,
    CorrelationEstimate,
    OutcomeSequence,
    ReplayFormatError,
    Side,
    UnsupportedAxisError,
    checkpoints,
    product_sum,
    read_lines,
    side_of_symbol,
    wrap_angle,
)
from .quantum import BornFlipModel, fair_coins, keep_probability, pair_uniforms

__all__ = [
    "CHUNK_PAIRS",
    "CollapseSequential",
    "FileReplay",
    "LHVSign",
    "ReplayFormatError",
    "UnsupportedAxisError",
    "correlate_block",
    "generate_block",
    "half_turn_start",
    "lhv_disagreement_counts",
    "lhv_outcomes",
    "model_from_spec",
    "product_sums",
]


def half_turn_start(theta: float, side: Side) -> int:
    """The first phase lane of the half-turn where the outcome along theta
    on ``side`` is +1: theta - pi/2 as a fraction of 2**32, and on Bob's
    side half a turn on, since Bob's outcome is the negation of Alice's."""
    # Python ints until one np.uint32 meets the array, whose subtraction wraps
    # silently (numpy 1.x widens uint32 mixed with a signed int)
    start = round(wrap_angle(theta) / math.tau * 2**32) - 2**30
    return (start if side is Side.ALICE else start + 2**31) % 2**32


def lhv_outcomes(phases: np.ndarray, theta: float, side: Side) -> np.ndarray:
    """Vectorized hidden-variable outcomes along one axis.

    A uint32 phase lane l is the hidden angle lam = l / 2**32 of a turn.  The
    outcome is +1 iff lam - t lies in [-pi/2, pi/2) mod 2*pi, decided exactly
    modulo 2**32 by the top bit of l - start; Bob's start is half a turn on,
    so equal-angle opposite-side values cancel on every pair.
    """
    _check_phases(phases)
    return fair_coins(phases - np.uint32(half_turn_start(theta, side)))


def _check_phases(phases) -> None:
    """A wider or signed array would not wrap modulo 2**32."""
    if not isinstance(phases, np.ndarray) or phases.dtype != np.uint32:
        raise TypeError("phases must be a uint32 array of phase lanes")


def lhv_disagreement_counts(phases: np.ndarray, starts) -> list[int]:
    """How many lanes have u != v for each pair of half-turn starts (s_a, s_b).

    The outcomes differ exactly where x = l - s_a (mod 2**32) lies in the
    symmetric difference of [0, 2**31) and [d, d + 2**31), d = s_b - s_a:
    where x mod 2**31 < d for d < 2**31, and where it is not below
    d - 2**31 otherwise.  Doubling modulo 2**32 takes x mod 2**31 to the top
    31 bits: with A, B the doubled starts and F(t) the doubled phases below
    t, a pair with d < 2**31 differs on the cyclic arc [A, B), F(B) - F(A)
    plus n if A > B, and otherwise on the other lanes.  One compare per
    doubled start, and no outcome is built.
    """
    _check_phases(phases)
    doubled, n = phases << np.uint32(1), phases.size
    below = {t: int(np.count_nonzero(doubled < np.uint32(t)))
             for t in {2 * s % 2**32 for pair in starts for s in pair}}
    counts = []
    for start_a, start_b in starts:
        a, b = 2 * start_a % 2**32, 2 * start_b % 2**32
        arc = below[b] - below[a] + (n if a > b else 0)
        counts.append(arc if (start_b - start_a) % 2**32 < 2**31 else n - arc)
    return counts


class LHVSign:
    """Local hidden-variable model; defines every axis on both sides from
    one 32-bit phase lane of the block's stream per pair (``lhv_outcomes``)."""

    name = "lhv-sign"

    def assign(self, block: Block, seed: int, span: slice) -> dict[str, np.ndarray]:
        phases = pair_uniforms(block, seed, span, 0, 32)
        return {
            symbol: lhv_outcomes(phases, theta, side_of_symbol(symbol))
            for symbol, theta in block.axes.items()
        }

    def disagreement_counts(self, block: Block, seed: int, span: slice, pairs) -> list[int]:
        """How many pairs in ``span`` disagree on each axis pair (``lhv_disagreement_counts``)."""
        start = {s: half_turn_start(t, side_of_symbol(s)) for s, t in block.axes.items()}
        phases = pair_uniforms(block, seed, span, 0, 32)
        return lhv_disagreement_counts(phases, [(start[a], start[b]) for a, b in pairs])


class CollapseSequential(BornFlipModel):
    """Nonlocal measure-P-first model; supports axes {E, E', P} only.

    There is no prescription for a second counterfactual on the collapsing
    side, so requesting P' is an error rather than a guess.
    """

    name = "collapse-sequential"

    def _tests(self, block: Block) -> dict:
        """P the reference: E is -P where its column-0 draw keeps the sign -P
        that measuring P prepares, and E' where its column-1 draw does."""
        if SYM_PP in block.axes:
            raise UnsupportedAxisError(
                "collapse-sequential defines no second axis on the P side"
            )
        if SYM_P not in block.axes:
            raise UnsupportedAxisError("collapse-sequential requires a P axis")
        theta_p = block.axes[SYM_P]
        tests: dict = {SYM_P: None}
        for column, symbol in ((0, SYM_E), (1, SYM_EP)):
            if symbol in block.axes:
                tests[symbol] = (column, keep_probability(block.axes[symbol] - theta_p))
        return tests

    # a name of this class's own, as bench/tracer.py wraps each model's assign
    assign = BornFlipModel.assign


class FileReplay:
    """Replay +/-1 tuples from a plain-text vector file.

    The first line is a header of ``symbol=angle`` tokens (angles in
    radians, symbols among E, E', P, P'); each following line carries one
    pair's values in header order.  Blank lines and lines that start with #
    are skipped, and errors name the physical line (``core.read_lines``).  The
    rows stream: a pass reads the file a line at a time, each line at most
    ``core.LINE_CAP`` characters, and stops at the block's count; a span that
    starts at or after the last one's end goes on with it, while any other
    starts afresh.
    """

    name = "file-replay"
    _UNITS = frozenset({1, -1})

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        # the pass the last span read: its block, the next row, the rows after it
        self._pass: tuple[Block, int, Iterator] | None = None

    def _parse_header(self, line: str) -> dict[str, float]:
        header: dict[str, float] = {}
        for token in line.split():
            sym, sep, val = token.partition("=")
            if not sep:
                raise ReplayFormatError(
                    f"{self.path}: header token {token!r} is not symbol=angle"
                )
            if sym not in (SYM_E, SYM_EP, SYM_P, SYM_PP):
                raise ReplayFormatError(f"{self.path}: unknown axis symbol {sym!r}")
            if sym in header:
                raise ReplayFormatError(f"{self.path}: duplicate axis {sym!r}")
            try:
                header[sym] = float(val)
            except ValueError:
                header[sym] = math.nan
            if not math.isfinite(header[sym]):
                raise ReplayFormatError(f"{self.path}: bad angle for {sym!r}: {val!r}")
        if not header:
            raise ReplayFormatError(f"{self.path}: empty header")
        return header

    def assign(self, block: Block, seed: int, span: slice) -> dict[str, np.ndarray]:
        lo, hi, _ = span.indices(block.count)
        state, self._pass = self._pass, None  # a pass that raised is not resumed
        if state is None or state[0] is not block or state[1] > lo:
            state = (block, 0, self._read(block))
        _, at, rows = state
        values = np.array(list(itertools.islice(rows, lo - at, hi - at)), dtype=np.int8)
        self._pass = (block, hi, rows) if hi < block.count else None  # done: closes the file
        values = values.reshape(-1, len(block.axes))
        return {symbol: values[:, i] for i, symbol in enumerate(block.axes)}

    def disagreement_counts(self, block: Block, seed: int, span: slice, pairs) -> list[int]:
        """How many pairs in ``span`` disagree on each axis pair, from ``assign``."""
        chunk = self.assign(block, seed, span)
        return [int(np.count_nonzero(chunk[a] != chunk[b])) for a, b in pairs]

    def _read(self, block: Block) -> Iterator:
        """One pass over the file: the block's axis values in each of its rows."""
        lines = read_lines(self.path, ReplayFormatError, "replay file")
        first = next(lines, None)
        if first is None:
            raise ReplayFormatError(f"{self.path}: file is empty")
        header = self._parse_header(first[1])
        width = len(header)
        missing = set(block.axes) - set(header)
        if missing:
            raise ReplayFormatError(
                f"{self.path}: block needs axes {sorted(missing)} not in header"
            )
        for symbol, theta in block.axes.items():
            if abs(wrap_angle(wrap_angle(header[symbol]) - theta)) > 1e-9:
                raise ReplayFormatError(
                    f"{self.path}: angle mismatch for {symbol!r}: file has "
                    f"{header[symbol]}, block wants {theta}"
                )
        pick = operator.itemgetter(*map(list(header).index, block.axes))
        count = 0
        for count, (number, row) in enumerate(itertools.islice(lines, block.count), 1):
            fields = row.split()
            if len(fields) != width:
                raise ReplayFormatError(
                    f"{self.path}: line {number} has {len(fields)} values, "
                    f"expected {width}"
                )
            try:
                values = tuple(map(int, fields))
            except ValueError as exc:
                raise ReplayFormatError(f"{self.path}: line {number}: {exc}") from exc
            if not self._UNITS.issuperset(values):
                raise ReplayFormatError(
                    f"{self.path}: line {number}: values must be +1 or -1"
                )
            yield pick(values)
        if count < block.count:
            raise ReplayFormatError(
                f"{self.path}: {count} data rows, block needs {block.count}"
            )


CounterfactualModel = LHVSign | CollapseSequential | FileReplay

# Pairs drawn, assigned and reduced at a time: memory depends on this, not
# on the block size.  A chunk's lanes take at most 256 KiB: two 16-bit
# columns, or one 32-bit LHV phase, per pair.
CHUNK_PAIRS = 2**16


def _spans(count: int, cuts=()) -> Iterator[slice]:
    """Consecutive spans of ``count`` pairs, cut at ``CHUNK_PAIRS`` multiples and ``cuts``."""
    ends = sorted({*range(CHUNK_PAIRS, count, CHUNK_PAIRS), *cuts, count})
    return map(slice, [0, *ends], ends)


def correlate_block(model, block: Block, seed: int, pairs) -> list[CorrelationEstimate]:
    """``correlate`` of each axis pair over a block, without holding the block.

    The spans end at every checkpoint, where the running disagreement counts
    give the partial sums; no outcome or mask outlives its span.
    """
    n, marks = block.count, checkpoints(block.count)
    total, at_marks = [0] * len(pairs), []
    for span in _spans(n, marks):
        total = list(map(operator.add, total, model.disagreement_counts(block, seed, span, pairs)))
        if span.stop in marks:
            at_marks.append(total)
    sums = [tuple(map(product_sum, marks, column)) for column in zip(*at_marks)]
    return [CorrelationEstimate(n, partial[-1], partial) for partial in sums]


def product_sums(model, block: Block, seed: int, pairs) -> list[int]:
    """Exact product sum of each axis pair over a block, counted chunk by chunk."""
    counts = [model.disagreement_counts(block, seed, span, pairs) for span in _spans(block.count)]
    return [product_sum(block.count, sum(differ)) for differ in zip(*counts)]


def generate_block(
    model: "CounterfactualModel", block: Block, seed: int
) -> dict[str, OutcomeSequence]:
    """Run a model over a block: one complete +/-1 tuple per pair.

    Returns one sequence per block axis.  The measured value and the
    counterfactual value on an axis are one and the same entry, so the
    single-tuple convention holds by construction.
    """
    chunks = [model.assign(block, seed, span) for span in _spans(block.count)]
    return {s: OutcomeSequence(np.concatenate([c[s] for c in chunks])) for s in block.axes}


def model_from_spec(name: str, path: "str | Path | None" = None) -> "CounterfactualModel":
    """Build a model from its CLI/config name."""
    key = name.strip().lower().replace("_", "-")
    if key in ("lhv-sign", "lhv", "lhvsign"):
        return LHVSign()
    if key in ("collapse-sequential", "collapse", "collapsesequential"):
        return CollapseSequential()
    if key in ("file-replay", "replay", "filereplay"):
        if path is None:
            raise ValueError("file-replay model needs a path (model.path)")
        return FileReplay(path)
    raise ValueError(f"unknown counterfactual model: {name!r}")
