"""Scenario runner: reproduce each falsification and lemma at the desk.

Every scenario is deterministic in (config, seed): randomness is
counter-based, files never embed timestamps, and reruns are byte-identical.
Results carry analytic correlation statuses from the definability engine
side by side with Monte Carlo estimates, each MC row quoting the 4/sqrt(N)
tolerance convention.

Exit codes: 0 success, 2 configuration error, 3 a correlation required by
the scenario has no definite value under the configured hypotheses,
4 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SYM_E, SYM_EP, SYM_P, SYM_PP, Block, pair_symbol
from .inequalities import (
    V3_PAIRS,
    V4_PAIRS,
    eval_v3,
    eval_v4,
    feasible_quad,
    feasible_triple,
    product_sum,
    sica_v3_slack,
    sica_v4_margin,
)
from .quantum import SingletSource
from .realism import (
    ReplayFormatError,
    UnsupportedAxisError,
    assign_chunks,
    correlate_block,
    model_from_spec,
)
from .relativity import (
    DefinabilityEngine,
    HypothesisSet,
    SpacetimeEvent,
    UndefinedCorrelationError,
    boosted_order,
    find_observer,
    interval_type,
    no_correlation_check,
)

# Not called since the sampled scenarios stream their blocks, but
# bench/tracer.py wraps these names in this module.
from .core import correlate  # noqa: F401
from .inequalities import sica_v3_check, sica_v4_check  # noqa: F401
from .realism import generate_block  # noqa: F401

__all__ = ["ConfigError", "ScenarioConfig", "ScenarioResult", "main", "run"]

SCHEMA_VERSION = 1
OUT_DIR_ENV = "BELLLAB_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNDEFINED = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid scenario configuration."""


DEFAULT_PAIRS = 1_000_000
SWEEP_DEFAULT_PAIRS = 20_000  # identities are exact at any N; keep the sweep quick
SWEEP_DEFAULT_STEP = math.pi / 90.0
# lhv-sweep runs round(pi / grid-step) + 1 configurations of two blocks each;
# the cap keeps a tiny step from running unbounded (at the default pairs,
# 1,000 configurations take about 3 s on a 2-vCPU machine, so the cap is
# about 30 s).
_SWEEP_MAX_CONFIGURATIONS = 10_000
# Pairs a run may draw, pairs x blocks.  Memory does not grow with pairs, so
# this bounds time: 10**9 pairs take 40-65 s on a 2-vCPU machine.
_MAX_PAIRS_PER_RUN = 10**9
# Blocks each scenario draws; lhv-sweep draws two per configuration.
_BLOCKS = {"v3-local": 2, "v4-chsh": 4, "v3-eacp": 1, "no-correlation": 1}


@dataclass
class ScenarioConfig:
    """Inputs of one scenario run; None fields fall back per scenario."""

    scenario: str
    seed: int = 0
    n_pairs: int | None = None
    angles: dict[str, float] = field(default_factory=dict)
    hypotheses: HypothesisSet | None = None
    model: str | None = None
    model_path: str | None = None
    target: list[float] | None = None
    events: dict[str, float] = field(default_factory=dict)
    grid_step: float | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; "
                f"choose from {', '.join(sorted(SCENARIOS))}"
            )
        if self.n_pairs is not None and self.n_pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {self.n_pairs}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        named = {f"angles.{k}": v for k, v in self.angles.items()}
        named.update({f"events.{k}": v for k, v in self.events.items()})
        for key, value in named.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.grid_step is not None:
            if not 0 < self.grid_step < math.inf:
                raise ConfigError(
                    f"grid-step must be positive and finite, got {self.grid_step}"
                )
            # round(pi / step) + 1 > limit, without overflowing on a tiny step
            if math.pi / self.grid_step >= _SWEEP_MAX_CONFIGURATIONS - 0.5:
                raise ConfigError(
                    f"grid-step {self.grid_step} gives more than the limit of "
                    f"{_SWEEP_MAX_CONFIGURATIONS} configurations over [0, pi]; "
                    f"use a step above {math.pi / (_SWEEP_MAX_CONFIGURATIONS - 0.5):.6g}"
                )
        blocks = _BLOCKS.get(self.scenario, 0)
        if self.scenario == "lhv-sweep":
            blocks = 2 * (round(math.pi / (self.grid_step or SWEEP_DEFAULT_STEP)) + 1)
        if self.pairs * blocks > _MAX_PAIRS_PER_RUN:
            raise ConfigError(
                f"pairs {self.pairs} x {blocks} blocks is over the limit of "
                f"{_MAX_PAIRS_PER_RUN:,} pairs per run; use at most "
                f"{_MAX_PAIRS_PER_RUN // blocks} pairs"
            )
        if self.tolerance is not None and not 0 <= self.tolerance < math.inf:
            raise ConfigError(f"tol must be non-negative and finite, got {self.tolerance}")
        for i, value in enumerate(self.target or ()):
            if not -1.0 <= value <= 1.0:
                raise ConfigError(f"target[{i}] out of range [-1, 1]: {value}")
        if self.model:  # empty falls back to the scenario's default model
            try:
                model_from_spec(self.model, self.model_path)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    @property
    def pairs(self) -> int:
        if self.n_pairs is not None:
            return self.n_pairs
        return SWEEP_DEFAULT_PAIRS if self.scenario == "lhv-sweep" else DEFAULT_PAIRS


@dataclass
class ScenarioResult:
    """Outputs of one scenario run; wall clock never enters output files.

    ``run`` copies ``scenario``, ``seed`` and ``n_pairs`` from the config.
    """

    inputs: dict
    correlations: list[dict]
    inequalities: list[dict]
    extras: dict
    verdict: str
    scenario: str = ""
    seed: int = 0
    n_pairs: int = 0
    wall_clock_s: float = 0.0


def _row(
    symbol: str,
    status: str,
    value=None,
    lo=None,
    hi=None,
    n=None,
    source: str = "analytic",
    justification: str = "",
) -> dict:
    """One output row; every scenario builds its rows here."""
    return {
        "symbol": symbol,
        "status": status,
        "value": value,
        "lo": lo,
        "hi": hi,
        "n": n,
        "source": source,
        "justification": justification,
    }


def _mc_row(symbol: str, estimate, tolerance: float) -> dict:
    return _row(
        symbol, "estimated", estimate.mean, estimate.running_min_mean,
        estimate.running_max_mean, estimate.n, "monte-carlo",
        f"monte-carlo (tolerance {tolerance:.6g})",
    )


def _mc_rows(model, block: Block, seed: int, pairs) -> list[dict]:
    """Monte Carlo rows for axis pairs of one block, streamed in chunks."""
    tol = 4.0 / math.sqrt(block.count)
    estimates = correlate_block(model, block, seed, pairs)
    return [_mc_row(pair_symbol(a, b), est, tol) for (a, b), est in zip(pairs, estimates)]


def _angles_with_defaults(cfg: ScenarioConfig, defaults: dict[str, float]) -> dict:
    return {**defaults, **cfg.angles}


V3_DEFAULT_ANGLES = {SYM_P: 0.0, SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4}
V4_DEFAULT_ANGLES = {
    SYM_E: math.pi / 4,
    SYM_EP: 3 * math.pi / 4,
    SYM_P: math.pi / 2,
    SYM_PP: 0.0,
}


def _v3_rows_and_report(engine: DefinabilityEngine, angles: dict):
    pairs = [(SYM_E, SYM_P), (SYM_EP, SYM_P), (SYM_E, SYM_EP)]
    statuses = engine.definite_statuses(angles, pairs)
    value = {st.symbol: st.value for st in statuses}
    report = eval_v3(*(value[pair_symbol(*p)] for p in V3_PAIRS))
    return [_row(**st.to_dict()) for st in statuses], report


def _v3_verdict(report, anchor: str) -> str:
    lhs_over_rhs = f"{report.lhs:.6f} <= {report.rhs:.6f}"
    if report.violated:
        return (
            f"falsified: the inequality reduces to {lhs_over_rhs}, i.e. "
            f"sqrt(2) <= 1, which is false (excess {report.excess:.6f}) [{anchor}]"
        )
    return f"satisfied: {lhs_over_rhs} holds (slack {report.slack:.6f}) [{anchor}]"


def _scenario_v3_eacp(cfg: ScenarioConfig) -> ScenarioResult:
    hypotheses = cfg.hypotheses or HypothesisSet.parse("WR,EACP,FWP")
    angles = _angles_with_defaults(cfg, V3_DEFAULT_ANGLES)
    engine = DefinabilityEngine(hypotheses)
    rows, report = _v3_rows_and_report(engine, angles)

    model = model_from_spec(cfg.model or "collapse-sequential", cfg.model_path)
    block = Block({s: angles[s] for s in (SYM_E, SYM_EP, SYM_P)}, count=cfg.pairs)
    mc_pairs = ((SYM_P, SYM_E), (SYM_P, SYM_EP), (SYM_E, SYM_EP))
    rows += _mc_rows(model, block, cfg.seed, mc_pairs)

    triple = [report.c_xy, report.c_yz, report.c_xz]  # <P,E>, <E',P>, <E,E'>
    return ScenarioResult(
        inputs={
            "angles": dict(angles),
            "hypotheses": hypotheses.label(),
            "model": model.name,
        },
        correlations=rows,
        inequalities=[report.to_dict()],
        extras={"triple <P,E>,<E',P>,<E,E'>": triple},
        verdict=_v3_verdict(report, "v3-under-eacp-fwp"),
    )


def _singlet_rows(cfg: ScenarioConfig, angles: dict, pairs) -> list[dict]:
    """Monte Carlo rows of singlet pairs, the k-th pair measured in block k."""
    rows = []
    for k, (a, b) in enumerate(pairs):
        block = Block({a: angles[a], b: angles[b]}, count=cfg.pairs, index=k)
        rows += _mc_rows(SingletSource(), block, cfg.seed, [(a, b)])
    return rows


def _scenario_v3_local(cfg: ScenarioConfig) -> ScenarioResult:
    hypotheses = cfg.hypotheses or HypothesisSet.parse("WR,Locality")
    angles = _angles_with_defaults(cfg, V3_DEFAULT_ANGLES)
    engine = DefinabilityEngine(hypotheses)
    rows, report = _v3_rows_and_report(engine, angles)

    # The two cross correlations are measurable: sample each in its own block.
    rows += _singlet_rows(cfg, angles, ((SYM_E, SYM_P), (SYM_EP, SYM_P)))

    return ScenarioResult(
        inputs={"angles": dict(angles), "hypotheses": hypotheses.label()},
        correlations=rows,
        inequalities=[report.to_dict()],
        extras={},
        verdict=_v3_verdict(report, "v3-under-locality"),
    )


def _scenario_v4_chsh(cfg: ScenarioConfig) -> ScenarioResult:
    hypotheses = cfg.hypotheses or HypothesisSet.parse("WR,Locality")
    angles = _angles_with_defaults(cfg, V4_DEFAULT_ANGLES)
    engine = DefinabilityEngine(hypotheses)
    statuses = engine.definite_statuses(angles, V4_PAIRS)
    report = eval_v4(*(st.value for st in statuses))
    mc_rows = _singlet_rows(cfg, angles, V4_PAIRS)
    rows = [_row(**st.to_dict()) for st in statuses] + mc_rows
    s_mc = eval_v4(*(row["value"] for row in mc_rows)).s

    if report.violated:
        verdict = (
            f"falsified: S = {report.s:.6f} > 2, i.e. 2*sqrt(2) <= 2 is false "
            f"(monte carlo S = {s_mc:.4f}) [chsh-under-locality]"
        )
    else:
        verdict = f"satisfied: S = {report.s:.6f} <= 2 [chsh-under-locality]"
    return ScenarioResult(
        inputs={"angles": dict(angles), "hypotheses": hypotheses.label()},
        correlations=rows,
        inequalities=[report.to_dict()],
        extras={"S_monte_carlo": s_mc},
        verdict=verdict,
    )


def _scenario_no_correlation(cfg: ScenarioConfig) -> ScenarioResult:
    model_name = cfg.model or "lhv-sign"
    model = model_from_spec(model_name, cfg.model_path)
    defaults = {SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4, SYM_P: 0.0}
    angles = _angles_with_defaults(cfg, defaults)
    report = no_correlation_check(
        model,
        angles[SYM_E],
        angles[SYM_EP],
        angles[SYM_P],
        cfg.pairs,
        seed=cfg.seed,
        tolerance=cfg.tolerance,
    )
    est = report.estimate
    rows = [_mc_row(pair_symbol(SYM_E, SYM_EP), est, report.tolerance)]
    if report.verdict.value == "consistent":
        verdict = (
            f"consistent with the zero prediction: |{est.mean:.5f}| <= "
            f"{report.tolerance:.5f} and extrema straddle 0 [no-correlation-lemma]"
        )
    else:
        if abs(est.mean) > report.tolerance:
            detail = f"<E,E'> = {est.mean:.5f} exceeds tolerance {report.tolerance:.5f}"
        else:
            detail = (
                f"partial-mean extrema [{est.running_min_mean:+.5f}, "
                f"{est.running_max_mean:+.5f}] do not straddle 0"
            )
        verdict = (
            f"model {report.model} fails the zero prediction ({detail}); "
            f"flagged as EACP-violation witness [no-correlation-lemma]"
        )
    return ScenarioResult(
        inputs={"angles": dict(angles), "model": report.model},
        correlations=rows,
        inequalities=[],
        extras=report.to_dict(),
        verdict=verdict,
    )


_DEFAULT_EVENTS = {"E.x": -1.0, "E.t": 0.0, "P.x": 1.0, "P.t": 0.0}


def _scenario_observer_order(cfg: ScenarioConfig) -> ScenarioResult:
    ev = {**_DEFAULT_EVENTS, **cfg.events}
    e_event = SpacetimeEvent(ev["E.x"], ev["E.t"])
    p_event = SpacetimeEvent(ev["P.x"], ev["P.t"])
    kind = interval_type(e_event, p_event)
    try:
        boost_ep = find_observer(e_event, p_event, "E-P")
        boost_pe = find_observer(e_event, p_event, "P-E")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    order_ep = boosted_order(e_event, p_event, boost_ep)
    order_pe = boosted_order(e_event, p_event, boost_pe)
    rows = [
        _row(f"boost:{order}", "defined", boost.beta,
             justification="frame-dependent-ordering")
        for order, boost in (("E-P", boost_ep), ("P-E", boost_pe))
    ]
    ok = order_ep == 1 and order_pe == -1
    verdict = (
        f"{'both orderings realized' if ok else 'ordering construction failed'}: "
        f"beta={boost_ep.beta:+.3f} puts E first, beta={boost_pe.beta:+.3f} puts "
        f"P first ({kind.value} separation) [frame-dependent-ordering]"
    )
    return ScenarioResult(
        inputs={"events": ev},
        correlations=rows,
        inequalities=[],
        extras={
            "interval": kind.value,
            "boost_E_first": boost_ep.beta,
            "boost_P_first": boost_pe.beta,
            "order_check": [order_ep, order_pe],
        },
        verdict=verdict,
    )


def _scenario_polytope(cfg: ScenarioConfig) -> ScenarioResult:
    default = [math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0]
    target = default if cfg.target is None else cfg.target  # [] is an error below
    if len(target) == 3:
        result = feasible_triple(*target)
        names = ["xy", "xz", "yz"]
    elif len(target) == 4:
        result = feasible_quad(*target)
        names = ["xy", "xz", "wy", "wz"]
    else:
        raise ConfigError(
            f"target must have 3 or 4 correlations, got {len(target)}"
        )
    rows = [
        _row(f"target:{name}", "target", value, source="input",
             justification="local-polytope-membership")
        for name, value in zip(names, target)
    ]
    if result.feasible:
        verdict = (
            f"target admits a joint +/-1 distribution (witness found, "
            f"max deviation {result.max_violation:.2e}) [local-polytope-membership]"
        )
    else:
        verdict = (
            f"target lies outside the local polytope (needs slack "
            f"{result.max_violation:.6f}); no joint +/-1 distribution exists "
            f"[local-polytope-membership]"
        )
    return ScenarioResult(
        inputs={"target": list(target)},
        correlations=rows,
        inequalities=[],
        extras=result.to_dict(),
        verdict=verdict,
    )


def _product_sums(model, block: Block, seed: int, pairs) -> list[int]:
    """Exact product sum of each axis pair over a block, added chunk by chunk."""
    sums = [0] * len(pairs)
    for chunk in assign_chunks(model, block, seed):
        for i, (a, b) in enumerate(pairs):
            sums[i] += product_sum(chunk[a], chunk[b])
    return sums


def _scenario_lhv_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    n = cfg.pairs
    step = cfg.grid_step if cfg.grid_step is not None else SWEEP_DEFAULT_STEP
    model = model_from_spec(cfg.model or "lhv-sign", cfg.model_path)
    phis = np.arange(0.0, math.pi + step / 2, step)
    min_v3_slack = math.inf
    min_v4_margin = math.inf
    max_dev = 0.0
    violations = 0
    for k, phi in enumerate(phis):
        phi = float(phi)
        block3 = Block({SYM_P: 0.0, SYM_E: phi, SYM_EP: 2 * phi}, count=n, index=2 * k)
        # the finite-run inequality on the linked sequences, exact integers
        sums3 = _product_sums(model, block3, cfg.seed, V3_PAIRS)
        exact3 = sica_v3_slack(n, *sums3)
        min_v3_slack = min(min_v3_slack, exact3)
        violations += exact3 < 0

        # LHV two-point law: +/-(1 - 2*delta/pi); track worst deviation of <E,P>
        analytic = -(1 - 2 * min(abs(phi), math.pi) / math.pi)
        max_dev = max(max_dev, abs(sums3[0] / n - analytic))

        angles4 = {SYM_E: phi, SYM_EP: 3 * phi, SYM_P: 2 * phi, SYM_PP: 0.0}
        block4 = Block(angles4, count=n, index=2 * k + 1)
        exact4 = sica_v4_margin(n, *_product_sums(model, block4, cfg.seed, V4_PAIRS))
        min_v4_margin = min(min_v4_margin, exact4)
        violations += exact4 < 0
    rows = [
        _row(symbol, "exact", value, n=n, source="sweep",
             justification="finite-run-identities")
        for symbol, value in (("min:V3.slack", min_v3_slack),
                              ("min:V4.margin", min_v4_margin))
    ]
    verdict = (
        f"{violations} violations across {len(phis)} configurations "
        f"(min V3 slack {min_v3_slack:.6f}, min V4 margin {min_v4_margin:.6f}) "
        f"[finite-run-identities]"
    )
    return ScenarioResult(
        inputs={"model": model.name, "grid_step": step},
        correlations=rows,
        inequalities=[],
        extras={
            "configurations": len(phis),
            "violations": violations,
            "max_two_point_deviation": max_dev,
        },
        verdict=verdict,
    )


SCENARIOS = {
    "v3-local": _scenario_v3_local,
    "v4-chsh": _scenario_v4_chsh,
    "v3-eacp": _scenario_v3_eacp,
    "no-correlation": _scenario_no_correlation,
    "observer-order": _scenario_observer_order,
    "polytope": _scenario_polytope,
    "lhv-sweep": _scenario_lhv_sweep,
}


def run(config: ScenarioConfig) -> ScenarioResult:
    """Execute a registered scenario and time it."""
    start = time.perf_counter()
    result = SCENARIOS[config.scenario](config)
    result.scenario, result.seed, result.n_pairs = (
        config.scenario, config.seed, config.pairs
    )
    result.wall_clock_s = time.perf_counter() - start
    return result


# -- serialization -----------------------------------------------------------

CSV_COLUMNS = ["scenario", "symbol", "status", "value", "lo", "hi", "n", "seed"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(result: ScenarioResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in result.correlations:
        writer.writerow(
            [
                result.scenario,
                row["symbol"],
                row["status"],
                _cell(row.get("value")),
                _cell(row.get("lo")),
                _cell(row.get("hi")),
                _cell(row.get("n")),
                result.seed,
            ]
        )
    for ineq in result.inequalities:
        version = ineq["version"]
        headline = ineq["S"] if version == "V4" else ineq["slack"]
        writer.writerow(
            [
                result.scenario,
                version,
                "violated" if ineq["violated"] else "satisfied",
                _cell(headline),
                "",
                "",
                "",
                result.seed,
            ]
        )
    return buf.getvalue()


def to_json(result: ScenarioResult) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": result.scenario,
        "seed": result.seed,
        "pairs": result.n_pairs,
        "inputs": result.inputs,
        "correlations": result.correlations,
        "inequalities": result.inequalities,
        "extras": result.extras,
        "verdict": result.verdict,
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def to_table(result: ScenarioResult) -> str:
    lines = [f"scenario: {result.scenario}   seed: {result.seed}   pairs: {result.n_pairs}"]
    for key, value in result.inputs.items():
        lines.append(f"  {key}: {value}")
    if result.correlations:
        lines.append(f"{'symbol':<14}{'status':<26}{'value':>14}{'lo':>14}{'hi':>14}{'n':>10}")
        for row in result.correlations:
            lines.append(
                f"{row['symbol']:<14}{row['status']:<26}"
                f"{_fmt(row.get('value')):>14}{_fmt(row.get('lo')):>14}"
                f"{_fmt(row.get('hi')):>14}{_fmt(row.get('n')):>10}"
            )
    for ineq in result.inequalities:
        if ineq["version"] == "V3":
            lines.append(
                f"V3: lhs {ineq['lhs']:.6f}  rhs {ineq['rhs']:.6f}  "
                f"slack {ineq['slack']:.6f}  violated: {ineq['violated']}"
            )
        else:
            lines.append(f"V4: S {ineq['S']:.6f}  violated: {ineq['violated']}")
    lines.append(f"verdict: {result.verdict}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


FORMATTERS = {"csv": to_csv, "json": to_json, "table": to_table}


# -- configuration -----------------------------------------------------------

def parse_config_file(path: "str | Path") -> dict[str, str]:
    """Flat key = value lines; # starts a comment; later keys win."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_float(raw: str, label: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{label} must be a number, got {raw!r}") from exc


def _parse_int(raw: str, label: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{label} must be an integer, got {raw!r}") from exc


# Config-file keys each scenario reads; every scenario also reads these.
_COMMON_KEYS = ("scenario", "seed", "pairs")
_V3_ANGLE_KEYS = tuple(f"angles.{s}" for s in (SYM_E, SYM_EP, SYM_P))
_MODEL_KEYS = ("model", "model.path")
_SCENARIO_KEYS = {
    "v3-local": (*_V3_ANGLE_KEYS, "hypotheses"),
    "v4-chsh": (*_V3_ANGLE_KEYS, f"angles.{SYM_PP}", "hypotheses"),
    "v3-eacp": (*_V3_ANGLE_KEYS, "hypotheses", *_MODEL_KEYS),
    "no-correlation": (*_V3_ANGLE_KEYS, *_MODEL_KEYS, "tol"),
    "observer-order": tuple(f"events.{name}" for name in _DEFAULT_EVENTS),
    "polytope": ("target",),
    "lhv-sweep": ("grid-step", *_MODEL_KEYS),
}


def _check_keys(raw: dict[str, str], scenario: str) -> None:
    """Reject a key no scenario knows, or one this scenario never reads."""
    for key in raw:
        if key in _COMMON_KEYS or key in _SCENARIO_KEYS[scenario]:
            continue
        if any(key in keys for keys in _SCENARIO_KEYS.values()):
            raise ConfigError(f"config key {key!r} is not used by scenario {scenario!r}")
        raise ConfigError(f"unknown config key {key!r}")


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    raw = parse_config_file(args.config) if args.config else {}
    # A flag given on the command line overrides its config key and is
    # checked like one; str() of an int or float parses back exactly.
    flags = {
        "scenario": args.scenario,
        "seed": args.seed,
        "pairs": args.pairs,
        "grid-step": args.grid_step,
    }
    raw.update({key: str(value) for key, value in flags.items() if value is not None})

    scenario = raw.get("scenario")
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    if scenario in _SCENARIO_KEYS:  # an unknown scenario fails in ScenarioConfig
        _check_keys(raw, scenario)

    angles = {}
    events = {}
    for key, value in raw.items():
        if key.startswith("angles."):
            angles[key[len("angles."):]] = _parse_float(value, key)
        elif key.startswith("events."):
            events[key[len("events."):]] = _parse_float(value, key)

    target = None
    if "target" in raw:
        tokens = raw["target"].replace(",", " ").split()
        target = [_parse_float(t, "target") for t in tokens]

    hypotheses = None
    if "hypotheses" in raw:
        try:
            hypotheses = HypothesisSet.parse(raw["hypotheses"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    seed = _parse_int(raw.get("seed", "0"), "seed")
    pairs = _parse_int(raw["pairs"], "pairs") if "pairs" in raw else None
    grid_step = _parse_float(raw["grid-step"], "grid-step") if "grid-step" in raw else None
    tolerance = _parse_float(raw["tol"], "tol") if "tol" in raw else None

    return ScenarioConfig(
        scenario=scenario,
        seed=seed,
        n_pairs=pairs,
        angles=angles,
        hypotheses=hypotheses,
        model=raw.get("model"),
        model_path=raw.get("model.path"),
        target=target,
        events=events,
        grid_step=grid_step,
        tolerance=tolerance,
    )


def _resolve_out(path: str) -> Path:
    out = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="belllab",
        description="Run singlet-experiment scenarios and inequality checks.",
    )
    parser.add_argument(
        "--scenario", help=f"scenario name: {', '.join(sorted(SCENARIOS))}"
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument(
        "--pairs",
        type=int,
        default=None,
        help="pairs per estimate (default 10^6; lhv-sweep uses 20000)",
    )
    parser.add_argument("--out", help=f"output file (relative paths join ${OUT_DIR_ENV})")
    parser.add_argument(
        "--format", choices=sorted(FORMATTERS), default="table", help="output format"
    )
    parser.add_argument(
        "--grid-step",
        type=float,
        default=None,
        help="lhv-sweep angle step in radians (default pi/90)",
    )
    args = parser.parse_args(argv)

    try:
        result = run(build_config(args))
    except UndefinedCorrelationError as exc:
        print(f"belllab: undefined correlation: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ConfigError, UnsupportedAxisError, ReplayFormatError) as exc:
        print(f"belllab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rendered = FORMATTERS[args.format](result)
    if args.out:
        out_path = _resolve_out(args.out)
        try:
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(rendered)
        except OSError as exc:
            print(f"belllab: cannot write {out_path}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(result.verdict)
    else:
        sys.stdout.write(rendered)
    print(f"# wall clock: {result.wall_clock_s:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
