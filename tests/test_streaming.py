"""Streamed blocks give the same results at every chunk size.

Every sampled scenario runs its blocks through ``realism.assign_chunks`` in
chunks of ``realism.CHUNK_PAIRS`` pairs.  Philox is counter-based, so a
chunk reads the same draws as the one-shot block, and the reductions carry
exact integer sums from chunk to chunk: nothing here may depend on where
the chunks split.
"""

import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab import cli, realism
from belllab.core import SYM_E, SYM_EP, SYM_P, SYM_PP, Block, correlate
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
# 546,000 chunks (about 40 s), so it runs at the other sizes only; its
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
        sums3 = cli._product_sums(LHVSign(), block3, seed, V3_PAIRS)
        sums4 = cli._product_sums(LHVSign(), block4, seed, V4_PAIRS)
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
