"""Streamed blocks give the same results at every chunk size.

Every sampled scenario counts its blocks' disagreements over spans of at
most ``realism.CHUNK_PAIRS`` pairs (``realism.correlate_block``, which also
cuts them at each checkpoint, and ``realism.product_sums``).  Philox is
counter-based, so a span reads the same draws as the one-shot block, and
the reductions carry exact integer counts from span to span: nothing here
may depend on where the spans split.
"""

import itertools
import json
import math
import operator
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab import cli, realism
from belllab.core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Block,
    OutcomeSequence,
    checkpoints,
    correlate,
)
from belllab.inequalities import (
    V3_PAIRS,
    V4_PAIRS,
    sica_v3_check,
    sica_v3_slack,
    sica_v4_check,
    sica_v4_margin,
)
from belllab.quantum import SingletSource
from belllab.realism import (
    CollapseSequential,
    FileReplay,
    LHVSign,
    correlate_block,
    generate_block,
)

GOLDEN = Path(__file__).parent / "golden"
V3_ANGLES = {SYM_P: 0.0, SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4}

# The goldens are 3,000-pair runs (see test_golden.py), so 2,999 splits off
# one pair and 3,000 is one chunk.  lhv-sweep at one pair a chunk draws
# 273,000 chunks (about 8 s), so it runs at the other sizes only; its
# identity sums are checked at every chunk size by
# test_identity_sums_do_not_depend_on_chunk_size.
GOLDEN_CHUNKS = [
    pytest.param(scenario, chunk, id=f"{scenario}-chunk{chunk}")
    for chunk in (1, 7, 2999, 3000)
    for scenario in sorted(cli.SCENARIOS)
    if (scenario, chunk) != ("lhv-sweep", 1)
]


@pytest.mark.parametrize("scenario, chunk", GOLDEN_CHUNKS)
def test_golden_output_does_not_depend_on_chunk_size(scenario, chunk, monkeypatch):
    monkeypatch.setattr(realism, "CHUNK_PAIRS", chunk)
    result = cli.run(cli.ScenarioConfig(scenario, seed=7, n_pairs=3000))
    for fmt in ("csv", "table"):
        expected = (GOLDEN / f"{scenario}.{fmt}").read_bytes()
        assert cli.FORMATTERS[fmt](result).encode() == expected, fmt
    expected = json.loads((GOLDEN / f"{scenario}.json").read_text())
    assert json.loads(cli.to_json(result)) == expected


MODELS = st.sampled_from([LHVSign(), CollapseSequential()])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    index=st.integers(0, 5),
    seed=st.integers(0, 2**64 - 1),
    model=MODELS,
    data=st.data(),
)
def test_estimates_do_not_depend_on_chunk_size(n, index, seed, model, data):
    chunk = data.draw(st.integers(1, n), label="chunk")
    block = Block(V3_ANGLES, count=n, index=index)
    pairs = [(SYM_P, SYM_E), (SYM_P, SYM_EP), (SYM_E, SYM_EP)]
    whole = generate_block(model, block, seed)  # n < CHUNK_PAIRS: one chunk
    with mock.patch.object(realism, "CHUNK_PAIRS", chunk):
        streamed = correlate_block(model, block, seed, pairs)
        assert generate_block(model, block, seed) == whole
    assert streamed == [correlate(whole[a], whole[b]) for a, b in pairs]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_singlet_estimate_does_not_depend_on_chunk_size(n, seed, data):
    chunk = data.draw(st.integers(1, n), label="chunk")
    block = Block({SYM_EP: 0.4, SYM_PP: -1.1}, count=n, index=3)
    a, b = SingletSource().sample_pairs(block, seed)
    want = correlate_block(SingletSource(), block, seed, [(SYM_EP, SYM_PP)])
    with mock.patch.object(realism, "CHUNK_PAIRS", chunk):
        assert correlate_block(SingletSource(), block, seed, [(SYM_EP, SYM_PP)]) == want
    whole = generate_block(SingletSource(), block, seed)
    assert list(whole[SYM_EP].values) == list(a) and list(whole[SYM_PP].values) == list(b)
    assert want == [correlate(whole[SYM_EP], whole[SYM_PP])]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_identity_sums_do_not_depend_on_chunk_size(n, seed, data):
    chunk = data.draw(st.integers(1, n), label="chunk")
    phi = data.draw(st.floats(0.0, math.pi), label="phi")
    block3 = Block({SYM_P: 0.0, SYM_E: phi, SYM_EP: 2 * phi}, count=n)
    block4 = Block({SYM_E: phi, SYM_EP: 3 * phi, SYM_P: 2 * phi, SYM_PP: 0.0}, count=n)
    a3 = generate_block(LHVSign(), block3, seed)
    a4 = generate_block(LHVSign(), block4, seed)
    with mock.patch.object(realism, "CHUNK_PAIRS", chunk):
        sums3 = realism.product_sums(LHVSign(), block3, seed, V3_PAIRS)
        sums4 = realism.product_sums(LHVSign(), block4, seed, V4_PAIRS)
    assert sums3 == [correlate(a3[a], a3[b]).sum_products for a, b in V3_PAIRS]
    assert sums4 == [correlate(a4[a], a4[b]).sum_products for a, b in V4_PAIRS]
    assert sica_v3_slack(n, *sums3) == sica_v3_check(a3[SYM_E], a3[SYM_P], a3[SYM_EP])
    assert sica_v4_margin(n, *sums4) == sica_v4_check(
        a4[SYM_EP], a4[SYM_E], a4[SYM_P], a4[SYM_PP]
    )


def test_file_replay_longer_than_a_chunk_is_parsed_once(tmp_path, monkeypatch):
    n = 200
    source = generate_block(LHVSign(), Block(V3_ANGLES, count=n), seed=5)
    header = " ".join(f"{s}={V3_ANGLES[s]!r}" for s in (SYM_E, SYM_EP, SYM_P))
    rows = zip(*(source[s].values for s in (SYM_E, SYM_EP, SYM_P)))
    path = tmp_path / "vectors.txt"
    path.write_text(header + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    cfg = cli.ScenarioConfig(
        "v3-eacp", n_pairs=n, model="file-replay", model_path=str(path)
    )
    one_chunk = cli.to_json(cli.run(cfg))

    reads = []
    read = FileReplay._read
    monkeypatch.setattr(FileReplay, "_read", lambda self, b: reads.append(b) or read(self, b))
    monkeypatch.setattr(realism, "CHUNK_PAIRS", 7)
    assert cli.to_json(cli.run(cfg)) == one_chunk
    assert len(reads) == 1  # 29 chunks of one block


def write_replay(path, rows, tail=""):
    """A replay file of V3_ANGLES with the given data rows, then ``tail``."""
    header = " ".join(f"{s}={V3_ANGLES[s]!r}" for s in (SYM_E, SYM_EP, SYM_P))
    path.write_text(header + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows) + tail)
    return path


def replay_rows(n, seed=5):
    source = generate_block(LHVSign(), Block(V3_ANGLES, count=n), seed=seed)
    return list(zip(*(source[s].values.tolist() for s in (SYM_E, SYM_EP, SYM_P))))


def test_file_replay_never_reads_past_the_block(tmp_path):
    rows = replay_rows(300)
    # rows past the block: a bad value and a ragged row, then 180 KB of rows
    # and bytes that are not UTF-8, further on than a pass reads ahead
    path = write_replay(tmp_path / "v.txt", rows, "1 2 1\n1 1\n" + "1 1 1\n" * 30000)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    block = Block(V3_ANGLES, count=300)
    whole = generate_block(FileReplay(path), block, seed=0)
    assert list(zip(*(whole[s].values.tolist() for s in (SYM_E, SYM_EP, SYM_P)))) == rows
    with pytest.raises(realism.ReplayFormatError, match="line 302: values must be"):
        generate_block(FileReplay(path), Block(V3_ANGLES, count=301), seed=0)


def test_file_replay_goes_on_only_from_a_later_span(tmp_path, monkeypatch):
    rows = np.array(replay_rows(100), dtype=np.int8)
    model = FileReplay(write_replay(tmp_path / "v.txt", rows.tolist()))
    reads = []
    read = FileReplay._read
    monkeypatch.setattr(FileReplay, "_read", lambda self, b: reads.append(b) or read(self, b))
    block = Block(V3_ANGLES, count=100)
    # a span that starts at or after the last one's end goes on with its pass,
    # and one that starts before it starts a fresh pass
    for lo, hi, passes in [(0, 10, 1), (10, 30, 1), (40, 45, 1), (45, 45, 1), (45, 200, 1),
                           (20, 25, 2), (0, 100, 3), (99, 100, 4), (99, 100, 5)]:
        got = model.assign(block, 0, slice(lo, hi))
        for i, s in enumerate((SYM_E, SYM_EP, SYM_P)):
            assert np.array_equal(got[s], rows[lo:hi, i]), (lo, hi, s)
        assert len(reads) == passes, (lo, hi)


def test_file_replay_does_not_resume_a_pass_that_raised(tmp_path):
    path = write_replay(tmp_path / "v.txt", replay_rows(10), "1 2 1\n")
    model, block = FileReplay(path), Block(V3_ANGLES, count=20)
    assert len(model.assign(block, 0, slice(0, 5))[SYM_E]) == 5
    for _ in range(2):
        with pytest.raises(realism.ReplayFormatError, match="line 12: values must be"):
            model.assign(block, 0, slice(5, 20))


def test_file_replay_errors_name_the_physical_line_past_the_first_read(tmp_path):
    # about 400 KiB of rows and comments, so the pass reads the file in parts
    rows = replay_rows(20000)
    body = "".join(" ".join(map(str, r)) + "\n" + ("# note\n\n" if i % 2 else "")
                   for i, r in enumerate(rows))
    header = " ".join(f"{s}={V3_ANGLES[s]!r}" for s in (SYM_E, SYM_EP, SYM_P))
    path = tmp_path / "v.txt"
    path.write_text(header + "\n" + body + "1 1 x\n")
    lines = 1 + len(rows) + 2 * (len(rows) // 2) + 1
    block = Block(V3_ANGLES, count=len(rows) + 1)
    with pytest.raises(realism.ReplayFormatError, match=f"line {lines}: invalid literal"):
        generate_block(FileReplay(path), block, seed=0)
    block = Block(V3_ANGLES, count=len(rows) + 5)
    path.write_text(header + "\n" + body)
    with pytest.raises(realism.ReplayFormatError, match="20000 data rows, block needs 20005"):
        generate_block(FileReplay(path), block, seed=0)


def test_file_replay_memory_does_not_grow_with_the_file(tmp_path):
    """Peak RSS of a replay run is within 8 MiB of the LHV run at the same
    pairs, from a file five times longer than the run reads."""
    import subprocess
    import sys

    rows = "".join(f"{a} {b} {c}\n" for a, b, c in replay_rows(1000)) * 1000
    path = write_replay(tmp_path / "v.txt", [], rows)
    peak = (
        "import resource, sys; from belllab.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    runs = {}
    for model in ("lhv-sign", "file-replay"):
        cfg = tmp_path / f"{model}.cfg"
        cfg.write_text(f"scenario = no-correlation\nmodel = {model}\npairs = 200000\n"
                       + (f"model.path = {path}\n" if model == "file-replay" else ""))
        out = subprocess.run([sys.executable, "-c", peak, "--config", str(cfg)],
                             capture_output=True, text=True, check=True).stdout
        rc, kib = out.split()[-2:]
        runs[model] = (int(rc), int(kib) / 1024)
    assert runs["lhv-sign"][0] == runs["file-replay"][0] == 0
    assert runs["file-replay"][1] - runs["lhv-sign"][1] < 8, runs


# Gaps whose Born probability (1 + cos(gap)) / 2 is exactly 1, 1/2 and 0,
# and any other gap.
GAPS = st.sampled_from([0.0, math.pi / 2, math.pi]) | st.floats(-math.tau, math.tau)
MODEL_KINDS = ["singlet", "collapse-E", "collapse-E'", "collapse-both", "lhv", "replay"]


def model_and_block(kind, angles, n, seed, directory):
    """A model of ``kind`` and a block it defines, with the given angles."""
    if kind == "singlet":
        return SingletSource(), Block({SYM_EP: angles[0], SYM_PP: angles[1]}, count=n)
    if kind.startswith("collapse"):
        symbols = {"collapse-E": [SYM_E], "collapse-E'": [SYM_EP]}.get(kind, [SYM_E, SYM_EP])
        axes = {SYM_P: angles[0], **dict(zip(symbols, angles[1:]))}
        return CollapseSequential(), Block(axes, count=n, index=2)
    axes = dict(zip((SYM_E, SYM_EP, SYM_P, SYM_PP), angles))
    block = Block(axes, count=n, index=5)
    if kind == "lhv":
        return LHVSign(), block
    # replay the LHV outcomes of another seed, header angles as the block has them
    source = generate_block(LHVSign(), block, seed ^ 1)
    header = " ".join(f"{s}={theta!r}" for s, theta in block.axes.items())
    rows = zip(*(source[s].values for s in block.axes))
    path = Path(directory) / "vectors.txt"
    path.write_text(header + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return FileReplay(path), block


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=25, deadline=None)
@given(
    base=st.floats(-math.pi, math.pi),
    gaps=st.lists(GAPS, min_size=3, max_size=3),
    n=st.integers(1, 300) | st.integers(2**16 - 3, 2**16 + 40),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_counts_are_where_the_assigned_outcomes_differ(kind, base, gaps, n, seed, data):
    angles = [base, *(base + gap for gap in gaps)]
    with tempfile.TemporaryDirectory() as directory:
        model, block = model_and_block(kind, angles, n, seed, directory)
        whole = generate_block(model, block, seed)
        pairs = list(itertools.product(block.axes, repeat=2))  # every ordered pair
        # a drawn span, and spans that start mid-word: one inside the first
        # chunk and one that crosses the chunk edge at 2**16 when n does
        lo = data.draw(st.integers(0, n - 1), label="lo")
        spans = {(lo, data.draw(st.integers(lo + 1, n), label="hi"))}
        spans |= {(min(start, n - 1), n) for start in (1, 2**16 - 3)}
        for lo, hi in sorted(spans):
            span = slice(lo, hi)
            counts = model.disagreement_counts(block, seed, span, pairs)
            outcomes = model.assign(block, seed, span)
            for (a, b), count in zip(pairs, counts):
                assert type(count) is int, (a, b)
                assert count == np.count_nonzero(outcomes[a] != outcomes[b]), (a, b, span)
                assert count == np.count_nonzero(
                    whole[a].values[span] != whole[b].values[span]), (a, b, span)
        chunk = data.draw(st.sampled_from([1, 7, 2**16]), label="chunk")
        if n // chunk < 400:
            with mock.patch.object(realism, "CHUNK_PAIRS", chunk):
                streamed = correlate_block(model, block, seed, pairs)
            assert streamed == [correlate(whole[a], whole[b]) for a, b in pairs]


def reference_estimate(u, v):
    """(sum, partial sums at checkpoints): the running sum of u_i * v_i, one
    pair at a time."""
    running = list(itertools.accumulate(map(operator.mul, u, v)))
    return running[-1], tuple(running[t - 1] for t in checkpoints(len(u)))


class TestPairAtATimeReference:
    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=128),
        st.randoms(use_true_random=False),
    )
    def test_correlate_gives_the_reference_estimate(self, values, rnd):
        v = [rnd.choice([-1, 1]) for _ in values]
        est = correlate(OutcomeSequence(values), OutcomeSequence(v))
        assert (est.n, est.sum_products, est.partial_sums) == (
            len(values), *reference_estimate(values, v))

    # Checkpoints on and off the chunk edges at 7 and 2**16 pairs.  One pair a
    # chunk takes tens of microseconds a span, so it runs at the small n only.
    @pytest.mark.parametrize("kind", ["singlet", "collapse-both", "lhv", "replay"])
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 5, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
    def test_every_model_gives_the_reference_estimates(self, kind, n, tmp_path, monkeypatch):
        angles = [0.3, 1.9, -2.2, 0.3 + math.pi / 2]
        model, block = model_and_block(kind, angles, n, 11, tmp_path)
        whole = generate_block(model, block, 11)
        pairs = list(itertools.product(block.axes, repeat=2))
        want = [(n, *reference_estimate(whole[a].values.tolist(), whole[b].values.tolist()))
                for a, b in pairs]
        got = [correlate(whole[a], whole[b]) for a, b in pairs]
        assert [(e.n, e.sum_products, e.partial_sums) for e in got] == want
        for chunk in (1, 7, 2**16) if n <= 5 else (7, 2**16):
            monkeypatch.setattr(realism, "CHUNK_PAIRS", chunk)
            assert correlate_block(model, block, 11, pairs) == got, chunk
