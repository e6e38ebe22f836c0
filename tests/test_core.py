import json
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import belllab
from belllab import core
from belllab.core import (
    Block,
    OutcomeSequence,
    checkpoints,
    correlate,
    pair_symbol,
    wrap_angle,
)
from belllab.quantum import pair_uniforms


def seq(values):
    return OutcomeSequence(values)


def difference(a, b):
    """The wrapped angle from axis b to axis a, each wrapped first."""
    return wrap_angle(wrap_angle(a) - wrap_angle(b))


class TestWrapAngle:
    def test_wraps_into_half_open_interval(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0

    @given(st.floats(-50.0, 50.0))
    def test_normalization_idempotent(self, x):
        once = wrap_angle(x)
        assert wrap_angle(once) == once
        assert -math.pi < once <= math.pi

    @given(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
           | st.builds(np.float64, st.sampled_from(["nan", "inf", "-inf"])))
    def test_non_finite_values_are_rejected_by_name(self, x):
        with pytest.raises(ValueError, match=re.escape(f"angle must be finite, got {x!r}")):
            wrap_angle(x)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_value_wraps(self, x):
        assert -math.pi < wrap_angle(x) <= math.pi

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_difference_is_an_angle(self, a, b):
        d = difference(a, b)
        assert isinstance(d, float)
        assert -math.pi < d <= math.pi


class TestWrappedDifference:
    """The signed angle from one axis to another is ``difference(a2, a1)``."""

    def test_quarter_turn(self):
        assert difference(math.pi / 2, 0.0) == pytest.approx(math.pi / 2)

    def test_wrap_around(self):
        # 3pi/4 to -3pi/4 crosses the branch cut; magnitude is a right angle
        d = difference(-3 * math.pi / 4, 3 * math.pi / 4)
        assert abs(d) == pytest.approx(math.pi / 2)

    def test_identical_axes(self):
        assert difference(1.234, 1.234) == 0.0

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_antisymmetric_up_to_normalization(self, a, b):
        fwd = difference(b, a)
        rev = difference(a, b)
        assert abs(fwd) <= math.pi
        assert wrap_angle(fwd + rev) == pytest.approx(0.0, abs=1e-12)


class TestCorrelate:
    def test_self_correlation(self):
        u = seq([1, -1, 1])
        assert correlate(u, u).mean == 1.0

    def test_anti_correlation(self):
        assert correlate(seq([1, -1]), seq([-1, 1])).mean == -1.0

    def test_balanced_products(self):
        assert correlate(seq([1, 1, -1, -1]), seq([1, -1, 1, -1])).mean == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            correlate(seq([1, 1]), seq([1]))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            correlate(seq([]), seq([]))

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=128))
    def test_self_and_negated(self, values):
        u = seq(values)
        assert correlate(u, u).mean == 1.0
        assert correlate(u, OutcomeSequence(-u.values)).mean == -1.0

    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=128),
        st.randoms(use_true_random=False),
        st.floats(0.0, 10.0),
    )
    def test_interval_lies_within_tol_of_the_mean(self, values, rnd, tol):
        v = [rnd.choice([-1, 1]) for _ in values]
        est = correlate(seq(values), seq(v))
        lo, hi = est.interval(tol)
        assert est.mean - tol <= lo and hi <= est.mean + tol
        assert -1.0 <= est.mean <= 1.0


class TestOutcomeSequence:
    def test_rejects_non_unit_values(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            seq([1, 0, -1])

    def test_values_immutable(self):
        q = seq([1, -1])
        with pytest.raises(ValueError):
            q.values[0] = -1


class TestBlock:
    def test_stores_wrapped_angles(self):
        b = Block({"E": 0.1, "P'": 3 * math.pi / 2, "P": wrap_angle(0.2)}, count=5)
        assert b.axes == {"E": wrap_angle(0.1), "P'": wrap_angle(3 * math.pi / 2),
                          "P": wrap_angle(0.2)}
        assert b.axes["P'"] == pytest.approx(-math.pi / 2)

    def test_axes_are_read_only(self):
        # so the wrap and finiteness checks made at construction hold for good
        axes = {"E": 0.0, "P": 0.5}
        b = Block(axes, count=5)
        with pytest.raises(TypeError):
            b.axes["P"] = math.nan
        with pytest.raises(TypeError):
            del b.axes["E"]
        axes["P"] = math.nan  # the caller's dict is not the block's
        assert b.axes == {"E": 0.0, "P": 0.5}
        assert b == Block({"E": 0.0, "P": 0.5}, count=5)

    def test_count_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            Block({"E": 0.0}, count=0)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown axis symbol: 'Q'"):
            Block({"E": 0.0, "Q": 0.0}, count=1)

    def test_blocks_of_different_sizes_read_disjoint_words(self):
        # an address of index * count would give both blocks pairs 10-19
        for column, bits in ((0, 16), (1, 16), (0, 32)):
            first = pair_uniforms(Block({"E": 0.0}, count=20), 7, slice(None), column, bits)
            second = pair_uniforms(
                Block({"E": 0.0}, count=10, index=1), 7, slice(None), column, bits
            )
            assert first.shape == (20,) and second.shape == (10,)
            assert not set(first.tolist()) & set(second.tolist())

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_index_validated(self, index):
        with pytest.raises(ValueError, match="index"):
            Block({"E": 0.0}, count=1, index=index)
        assert Block({"E": 0.0}, count=1, index=2**64 - 1).index == 2**64 - 1


def test_pair_symbol_is_canonical():
    assert pair_symbol("P", "E") == "<E,P>"
    assert pair_symbol("E", "P") == "<E,P>"
    assert pair_symbol("P'", "E'") == "<E',P'>"
    with pytest.raises(ValueError):
        pair_symbol("E", "Q")


def test_checkpoints_are_the_powers_of_two_below_n_then_n():
    assert checkpoints(1) == [1]
    assert checkpoints(2) == [1, 2]
    assert checkpoints(4) == [1, 2, 4]
    assert checkpoints(5) == [1, 2, 4, 5]
    assert checkpoints(10_000) == [2**k for k in range(14)] + [10_000]


class TestReadLines:
    class Bad(ValueError):
        pass

    def read(self, path, total=math.inf):
        return list(core.read_lines(path, self.Bad, "test file", total))

    def test_lines_end_only_at_newline_return_or_both(self, tmp_path):
        path = tmp_path / "t.txt"
        inner = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        path.write_bytes(f" a{inner}b \nc\r\nd\re\n\n # note\n\t\f\nlast".encode())
        assert self.read(path) == [(1, f"a{inner}b"), (2, "c"), (3, "d"), (4, "e"), (8, "last")]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""])
    def test_a_line_at_the_cap_is_read_and_one_past_it_is_not(self, tmp_path, end):
        path = tmp_path / "t.txt"
        path.write_text("head\n" + "x" * core.LINE_CAP + end, newline="")
        assert self.read(path) == [(1, "head"), (2, "x" * core.LINE_CAP)]
        path.write_text("head\n" + "x" * (core.LINE_CAP + 1) + end, newline="")
        with pytest.raises(self.Bad, match=f"line 2 passes the limit of {core.LINE_CAP} "
                                           "characters a line"):
            self.read(path)

    def test_a_file_at_the_total_is_read_and_one_past_it_is_not(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ab\n# c\n")
        assert self.read(path, total=7) == [(1, "ab")]
        with pytest.raises(self.Bad, match="line 2 passes the limit of 6 characters a file"):
            self.read(path, total=6)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_a_device_is_read_under_the_cap(self):
        with pytest.raises(self.Bad, match="/dev/zero: line 1 passes the limit"):
            self.read("/dev/zero")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_a_fifo_is_read_like_a_file(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("a\r\nb",), daemon=True)
        writer.start()
        assert self.read(fifo) == [(1, "a"), (2, "b")]
        writer.join()

    @pytest.mark.parametrize("path, content", [
        ("missing.txt", None), (".", None), ("nul\x00byte", None), ("t.txt", b"ok\n\xff\n"),
    ])
    def test_what_cannot_be_read_raises_the_callers_error(self, tmp_path, path, content):
        if content is not None:
            (tmp_path / path).write_bytes(content)
        message = f"cannot read test file {tmp_path / path}: "
        with pytest.raises(self.Bad, match=re.escape(message)):
            self.read(tmp_path / path)


# Minor page faults allowed over the measured rounds of a probe.  With freed
# arrays left mapped, a warm process reuses their pages: 20 one-degree searches
# took 13,624 faults when glibc trimmed the heap after each, and 3 with it kept.
FAULT_BOUND = 300
# Traced peak above the start of one 1-degree search: two 360 x 360 float64
# arrays (0.99 MiB each) and change; three such arrays read 3.04 MiB.
SEARCH_PEAK_MIB = 2.2

SEARCH_PROBE = """
import json, math, resource, tracemalloc
from belllab.inequalities import falsification_search
from belllab.relativity import DefinabilityEngine, HypothesisSet

searches = [(v, DefinabilityEngine(HypothesisSet.parse(h)).values)
            for v in ("V3", "V4") for h in ("WR,Locality", "WR,EACP,FWP")]
for v, values in searches:  # warm-up
    falsification_search(v, values, math.pi / 180)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    for v, values in searches:
        falsification_search(v, values, math.pi / 180)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
tracemalloc.start()
peaks = []
for v, values in searches:
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    falsification_search(v, values, math.pi / 180)
    peaks.append((tracemalloc.get_traced_memory()[1] - start) / 2**20)
print(json.dumps([faults, peaks]))
"""

SAMPLED_PROBE = """
import contextlib, io, json, math, resource, sys
from belllab.cli import main

runs = [["--config", path] for path in sys.argv[1:]]
runs.append(["--scenario", "lhv-sweep", "--grid-step", repr(math.pi / 90)])
def run_all():
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
run_all()  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    run_all()
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


def run_probe(probe, *args):
    """The JSON a probe prints, from a fresh interpreter: heap layout and the
    once-per-process heap policy both start from scratch."""
    src = str(Path(belllab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(probe), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                 reason="the heap policy applies to glibc malloc only")


@needs_glibc
def test_searches_reuse_freed_pages_and_hold_two_meshes():
    faults, peaks = run_probe(SEARCH_PROBE)
    assert faults < FAULT_BOUND
    assert max(peaks) <= SEARCH_PEAK_MIB, peaks


@needs_glibc
def test_sampled_runs_reuse_freed_pages(tmp_path):
    configs = []
    for model in ("lhv-sign", "collapse-sequential"):
        cfg = tmp_path / f"{model}.cfg"
        cfg.write_text(f"scenario = no-correlation\nmodel = {model}\npairs = {2**20}\n")
        configs.append(str(cfg))
    assert run_probe(SAMPLED_PROBE, *configs) < FAULT_BOUND


@pytest.mark.parametrize("confstr", [
    mock.Mock(side_effect=ValueError("unrecognized configuration name")),  # macOS
    mock.Mock(side_effect=OSError(22, "Invalid argument")),  # musl
    mock.Mock(return_value=None),
    mock.Mock(return_value="uClibc 1.0"),
], ids=["no-name", "einval", "none", "other-libc"])
def test_heap_policy_does_nothing_off_glibc(confstr):
    with mock.patch.object(core.os, "confstr", confstr), \
            mock.patch("ctypes.CDLL", side_effect=AssertionError("mallopt was called")):
        assert core.keep_heap_mapped.__wrapped__() is None
    confstr.assert_called_once_with("CS_GNU_LIBC_VERSION")
