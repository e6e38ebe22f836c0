"""Pluggable counterfactual-assignment models.

A counterfactual model gives every emitted pair one complete +/-1 tuple
over all configured axes, so a value exists for each axis whether or not
that axis is the one actually measured (and the measured axis gets the
same value it would have gotten counterfactually).  Three models ship:

* ``LHVSign`` -- a local hidden-variable instance.  Each pair carries a
  uniform planar angle lam; the outcome along an axis at angle t is
  sign(cos(lam - t)) on Alice's side and its negation on Bob's.  Two-point
  functions are piecewise linear in the angle gap d = |t1 - t2|:
  1 - 2d/pi on the same side, -(1 - 2d/pi) across sides.
* ``CollapseSequential`` -- a nonlocal, measure-P-first rule: P is a fair
  coin, then both Alice-side values are drawn independently from the state
  the P measurement prepares.  Same-side correlations come out as
  cos(tE - tP) * cos(tE' - tP), generally nonzero, which is what makes the
  model useful as a violation witness.
* ``FileReplay`` -- verbatim +/-1 tuples from a text file, for adversarial
  and regression vectors.

``generate_block`` returns one ``OutcomeSequence`` per block axis, keyed
by symbol.  Whether an axis's value needs Weak Realism (a primed axis is
never the measured one) is decided by the definability engine in
``relativity``, not recorded on the sequences.

The seeded models draw a block's pairs from Philox counter
``block.first_pair`` on, the same address ``SingletSource`` reads, so an
assignment is a pure function of (seed, block) and blocks can be generated
in any order.  That address only keeps blocks of equal count apart (see
``Block.first_pair``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import (
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    Angle,
    Block,
    OutcomeSequence,
    Side,
    as_angle,
    side_of_symbol,
)
from .quantum import born_outcomes, pair_uniforms

__all__ = [
    "CollapseSequential",
    "FileReplay",
    "LHVSign",
    "ReplayFormatError",
    "UnsupportedAxisError",
    "generate_block",
    "lhv_outcomes",
    "model_from_spec",
]


class UnsupportedAxisError(ValueError):
    """The model has no prescription for one of the requested axes."""


class ReplayFormatError(ValueError):
    """A replay file does not match the expected layout."""


# No double is a zero of cos, so over |x| <= 7*pi/2 its sign flips between
# neighbouring doubles: _Z1, _Z5 and _Z7 are the last doubles below pi/2,
# 5*pi/2 and 7*pi/2, _Z3 the first above 3*pi/2.  np.cos flips there too,
# bit for bit (tests/test_realism.py checks 2**16 ulps around each zero).
_Z1 = float.fromhex("0x1.921fb54442d18p+0")  # math.pi / 2
_Z3 = float.fromhex("0x1.2d97c7f3321d3p+2")
_Z5 = float.fromhex("0x1.f6a7a2955385ep+2")
_Z7 = float.fromhex("0x1.5fdbbe9bba775p+3")


def lhv_outcomes(
    lambdas: np.ndarray, theta: "Angle | float", side: Side
) -> np.ndarray:
    """Vectorized hidden-variable outcomes along one axis.

    sign(cos(lam - t)) with ties resolved to +1; Bob's side is negated so
    equal-angle opposite-side values cancel exactly on every pair.  For
    |lam - t| <= 7*pi/2 (always so for LHVSign) the sign is decided by
    comparing |lam - t| with the zeros of cos, bit for bit what np.cos
    gives; anything else (empty, NaN, inf, far out) takes np.cos itself.
    """
    x = np.asarray(lambdas, dtype=np.float64) - float(as_angle(theta).radians)
    d = np.abs(x)
    if d.size and d.max() <= _Z7:
        plus = (d >= _Z3) & (d <= _Z5)
        plus |= d <= _Z1
        out = plus.view(np.int8) * 2 - 1
    else:
        out = np.where(np.cos(x) >= 0.0, 1, -1).astype(np.int8)
    return out if side is Side.ALICE else -out


class LHVSign:
    """Local hidden-variable model; defines every axis on both sides."""

    name = "lhv-sign"

    def lambdas(self, block: Block, seed: int) -> np.ndarray:
        """Hidden angles for the block's pairs, uniform on [0, 2*pi)."""
        u = pair_uniforms(seed, block.first_pair, block.count)
        return u[:, 0] * math.tau

    def assign(self, block: Block, seed: int) -> dict[str, np.ndarray]:
        lam = self.lambdas(block, seed)
        return {
            symbol: lhv_outcomes(lam, theta, side_of_symbol(symbol))
            for symbol, theta in block.axes.items()
        }


class CollapseSequential:
    """Nonlocal measure-P-first model; supports axes {E, E', P} only.

    There is no prescription for a second counterfactual on the collapsing
    side, so requesting P' is an error rather than a guess.
    """

    name = "collapse-sequential"

    def assign(self, block: Block, seed: int) -> dict[str, np.ndarray]:
        if SYM_PP in block.axes:
            raise UnsupportedAxisError(
                "collapse-sequential defines no second axis on the P side"
            )
        if SYM_P not in block.axes:
            raise UnsupportedAxisError("collapse-sequential requires a P axis")
        theta_p = block.axes[SYM_P].radians
        u = pair_uniforms(seed, block.first_pair, block.count)
        p = np.where(u[:, 0] < 0.5, 1, -1).astype(np.int8)
        out: dict[str, np.ndarray] = {SYM_P: p}
        prepared = -p  # far particle collapses to the opposite sign along theta_p
        for column, symbol in ((1, SYM_E), (2, SYM_EP)):
            if symbol in block.axes:
                delta = block.axes[symbol].radians - theta_p
                out[symbol] = born_outcomes(prepared, delta, u[:, column])
        return out


class FileReplay:
    """Replay +/-1 tuples from a plain-text vector file.

    Line 1 is a header of ``symbol=angle`` tokens (angles in radians,
    symbols among E, E', P, P'); each following non-empty line carries one
    pair's values in header order.
    """

    name = "file-replay"

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

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

    def assign(self, block: Block, seed: int) -> dict[str, np.ndarray]:
        try:
            lines = self.path.read_text().splitlines()
        except (OSError, ValueError) as exc:  # ValueError: NUL in path, not UTF-8
            raise ReplayFormatError(f"cannot read replay file {self.path}: {exc}") from exc
        lines = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines:
            raise ReplayFormatError(f"{self.path}: file is empty")
        header = self._parse_header(lines[0])
        order = list(header)
        missing = set(block.axes) - set(header)
        if missing:
            raise ReplayFormatError(
                f"{self.path}: block needs axes {sorted(missing)} not in header"
            )
        for symbol, theta in block.axes.items():
            if abs((as_angle(header[symbol]) - theta).radians) > 1e-9:
                raise ReplayFormatError(
                    f"{self.path}: angle mismatch for {symbol!r}: file has "
                    f"{header[symbol]}, block wants {theta.radians}"
                )
        rows = lines[1:]
        if len(rows) < block.count:
            raise ReplayFormatError(
                f"{self.path}: {len(rows)} data rows, block needs {block.count}"
            )
        data = np.empty((block.count, len(order)), dtype=np.int8)
        for i, row in enumerate(rows[: block.count]):
            fields = row.split()
            if len(fields) != len(order):
                raise ReplayFormatError(
                    f"{self.path}: line {i + 2} has {len(fields)} values, "
                    f"expected {len(order)}"
                )
            try:
                values = [int(f) for f in fields]
            except ValueError as exc:
                raise ReplayFormatError(f"{self.path}: line {i + 2}: {exc}") from exc
            if any(v not in (-1, 1) for v in values):
                raise ReplayFormatError(
                    f"{self.path}: line {i + 2}: values must be +1 or -1"
                )
            data[i] = values
        return {sym: data[:, order.index(sym)] for sym in block.axes}


CounterfactualModel = LHVSign | CollapseSequential | FileReplay


def generate_block(
    model: "CounterfactualModel", block: Block, seed: int
) -> dict[str, OutcomeSequence]:
    """Run a model over a block: one complete +/-1 tuple per pair.

    Returns one sequence per block axis.  The measured value and the
    counterfactual value on an axis are one and the same entry, so the
    single-tuple convention holds by construction.
    """
    raw = model.assign(block, seed)
    return {symbol: OutcomeSequence(raw[symbol]) for symbol in block.axes}


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
