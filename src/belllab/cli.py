"""Scenario runner: reproduce each falsification and lemma at the desk.

Every scenario is deterministic in (config, seed): randomness is
counter-based, files never embed timestamps, and reruns are byte-identical.
Results carry analytic correlation statuses from the definability engine
side by side with Monte Carlo estimates.  Each MC row's lo/hi is its
checkpoint interval at the 4/sqrt(N) tolerance, and its justification
quotes the false-witness rate alpha that interval carries.

Exit codes: 0 success, 2 configuration error, 3 a correlation required by
the scenario has no definite value under the configured hypotheses,
4 output I/O error.
"""

from __future__ import annotations

import io
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core import SYM_E, SYM_EP, SYM_P, SYM_PP, Block, pair_symbol, sica_v3_slack, sica_v4_margin
from .core import ReplayFormatError, UndefinedCorrelationError, UnsupportedAxisError
from .core import read_lines, wrap_angle

# Importing this module loads core alone: each scenario imports the names it
# calls.  bench/tracer.py wraps correlate here, and sica_v3_check, sica_v4_check
# and generate_block, which ``__getattr__`` serves; ROADMAP item 1 deletes them.
from .core import correlate  # noqa: F401

if TYPE_CHECKING:
    import argparse
    from .relativity import DefinabilityEngine, HypothesisSet

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
# lhv-sweep runs round(pi / grid-step) + 1 configurations of one block each.
# The cap bounds the blocks, whose fixed cost the pairs budget does not see: on
# a 2-vCPU machine a sweep at the cap takes 0.65-1.0 s at one pair a block,
# 1.6-2.3 s at the default pairs and 5.7-10.3 s at the 100,000 pairs the
# budget then allows (six fresh processes each).
_SWEEP_MAX_CONFIGURATIONS = 10_000
# Pairs a run may draw, pairs x blocks.  Memory does not grow with pairs, so
# this bounds time: on a 2-vCPU machine the largest runs it allows take
# 2.9-4.6 s for v4-chsh and v3-local, 3.9-7.4 s for no-correlation and
# 6.1-9.1 s for v3-eacp (three runs each).
_MAX_PAIRS_PER_RUN = 10**9


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one scenario run; None fields fall back per scenario.  Frozen,
    with ``angles`` and ``events`` as read-only copies and ``target`` a tuple,
    so the checks made on construction hold for the object's whole life."""

    scenario: str
    seed: int = 0
    n_pairs: int | None = None
    angles: Mapping[str, float] = field(default_factory=dict)
    hypotheses: HypothesisSet | None = None
    model: str | None = None
    model_path: str | None = None
    target: Sequence[float] | None = None
    events: Mapping[str, float] = field(default_factory=dict)
    grid_step: float | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles", MappingProxyType(dict(self.angles)))
        object.__setattr__(self, "events", MappingProxyType(dict(self.events)))
        object.__setattr__(self, "target", None if self.target is None else tuple(self.target))
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; "
                f"choose from {', '.join(sorted(SCENARIOS))}"
            )
        row = SCENARIOS[self.scenario]
        named = {f"{name}.{k}": v for name in ("angles", "events")
                 for k, v in getattr(self, name).items()}
        given = [key for key, (name, _) in _KEYS.items() if getattr(self, name) is not None]
        for key in given + list(named):
            if key not in (*row.keys, "seed", "pairs"):
                raise ConfigError(
                    f"config key {key!r} is not used by scenario {self.scenario!r}")
        if self.n_pairs is not None:
            object.__setattr__(self, "n_pairs", _integer("pairs", self.n_pairs))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.n_pairs is not None and self.n_pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {self.n_pairs}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
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
        blocks = row.blocks
        if "grid-step" in row.keys:  # a sweep draws its blocks per configuration
            blocks *= _sweep_configurations(self.grid_step or SWEEP_DEFAULT_STEP)
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
        if (self.model or self.model_path is not None) and _model(self).name == "file-replay":
            if "grid-step" in row.keys and blocks > 1:  # fail before a block is read
                raise ConfigError(
                    f"grid-step {self.grid_step or SWEEP_DEFAULT_STEP:.6g} gives {blocks} "
                    "configurations, but a replay header fixes one: use a grid-step of "
                    "at least 2*pi with file-replay")

    @property
    def pairs(self) -> int:
        if self.n_pairs is not None:
            return self.n_pairs
        return SWEEP_DEFAULT_PAIRS if self.scenario == "lhv-sweep" else DEFAULT_PAIRS


def _integer(key: str, value) -> int:
    """``value`` as an int; a bool, a float or any other non-integer is a ConfigError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return operator.index(value)


def _model(cfg: ScenarioConfig):
    """The configured model, or the scenario's default when ``model`` is empty."""
    from .realism import FileReplay, model_from_spec
    try:
        model = model_from_spec(cfg.model or SCENARIOS[cfg.scenario].model, cfg.model_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.model_path is not None and not isinstance(model, FileReplay):
        what = repr(cfg.model) if cfg.model else "the scenario's default model"
        raise ConfigError(f"model.path is read only by file-replay, not by {what}")
    return model


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


def _row(symbol: str, status: str, value=None, lo=None, hi=None, n=None,
         source: str = "analytic", justification: str = "") -> dict:
    """One output row; every scenario builds its rows here."""
    return dict(symbol=symbol, status=status, value=value, lo=lo, hi=hi, n=n,
                source=source, justification=justification)


def _analytic_rows(engine: DefinabilityEngine, angles: dict, pairs) -> list[dict]:
    """Rows of the pairs' statuses; raises unless every one is definite."""
    return [_row(st.symbol, st.kind.value, st.value, justification=st.justification)
            for st in engine.definite_statuses(angles, pairs)]


def _mc_row(symbol: str, estimate, tolerance: float) -> dict:
    """A Monte Carlo row; lo/hi are the checkpoint interval at the tolerance."""
    return _row(
        symbol, "estimated", estimate.mean, *estimate.interval(tolerance), estimate.n,
        "monte-carlo",
        f"monte-carlo (tolerance {tolerance:.6g}, alpha {estimate.alpha(tolerance):.3g})",
    )


def _mc_rows(model, block: Block, seed: int, pairs) -> list[dict]:
    """Monte Carlo rows for axis pairs of one block, streamed in chunks."""
    from .realism import correlate_block
    estimates = correlate_block(model, block, seed, pairs)
    return [_mc_row(pair_symbol(a, b), est, est.default_tol)
            for (a, b), est in zip(pairs, estimates)]


V3_DEFAULT_ANGLES = {SYM_P: 0.0, SYM_E: 3 * math.pi / 4, SYM_EP: -3 * math.pi / 4}
V4_DEFAULT_ANGLES = {
    SYM_E: math.pi / 4,
    SYM_EP: 3 * math.pi / 4,
    SYM_P: math.pi / 2,
    SYM_PP: 0.0,
}


def _engine(cfg: ScenarioConfig, hypotheses: str, angles: dict):
    """The configured hypotheses or these, angles over ``angles``, and their engine."""
    from .relativity import DefinabilityEngine
    chosen = cfg.hypotheses or _hypotheses(hypotheses)
    return chosen, {**angles, **cfg.angles}, DefinabilityEngine(chosen)


def _v3_rows_and_report(engine: DefinabilityEngine, angles: dict):
    from .inequalities import V3_PAIRS, eval_v3
    rows = _analytic_rows(engine, angles, [(SYM_E, SYM_P), (SYM_EP, SYM_P), (SYM_E, SYM_EP)])
    value = {row["symbol"]: row["value"] for row in rows}
    return rows, eval_v3(*(value[pair_symbol(*p)] for p in V3_PAIRS))


def _v3_verdict(report, anchor: str) -> str:
    lhs_over_rhs = f"{report.lhs:.6f} <= {report.rhs:.6f}"
    if report.violated:
        half = math.sqrt(2) / 2  # the paper's values: lhs half, rhs 1 - half
        paper = max(abs(report.lhs - half), abs(report.rhs - (1 - half))) <= 1e-12
        return (
            f"falsified: the inequality reduces to {lhs_over_rhs}"
            + (", i.e. sqrt(2) <= 1" if paper else "")
            + f", which is false (excess {report.excess:.6f}) [{anchor}]"
        )
    return f"satisfied: {lhs_over_rhs} holds (slack {report.slack:.6f}) [{anchor}]"


def _scenario_v3_eacp(cfg: ScenarioConfig) -> ScenarioResult:
    hypotheses, angles, engine = _engine(cfg, "WR,EACP,FWP", V3_DEFAULT_ANGLES)
    rows, report = _v3_rows_and_report(engine, angles)

    model = _model(cfg)
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
    from .quantum import SingletSource
    rows = []
    for k, (a, b) in enumerate(pairs):
        block = Block({a: angles[a], b: angles[b]}, count=cfg.pairs, index=k)
        rows += _mc_rows(SingletSource(), block, cfg.seed, [(a, b)])
    return rows


def _scenario_v3_local(cfg: ScenarioConfig) -> ScenarioResult:
    hypotheses, angles, engine = _engine(cfg, "WR,Locality", V3_DEFAULT_ANGLES)
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
    from .inequalities import V4_PAIRS, eval_v4
    hypotheses, angles, engine = _engine(cfg, "WR,Locality", V4_DEFAULT_ANGLES)
    rows = _analytic_rows(engine, angles, V4_PAIRS)
    report = eval_v4(*(row["value"] for row in rows))
    mc_rows = _singlet_rows(cfg, angles, V4_PAIRS)
    rows += mc_rows
    s_mc = eval_v4(*(row["value"] for row in mc_rows)).s

    if report.violated:
        paper = abs(report.s - 2 * math.sqrt(2)) <= 1e-12  # the paper's S
        verdict = (
            f"falsified: S = {report.s:.6f} > 2"
            + (", i.e. 2*sqrt(2) <= 2 is false" if paper else "")
            + f" (monte carlo S = {s_mc:.4f}) [chsh-under-locality]"
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
    from .relativity import no_correlation_check
    model = _model(cfg)
    defaults = {s: V3_DEFAULT_ANGLES[s] for s in (SYM_E, SYM_EP, SYM_P)}  # printed in this order
    angles = {**defaults, **cfg.angles}
    report = no_correlation_check(
        model, angles[SYM_E], angles[SYM_EP], angles[SYM_P], cfg.pairs,
        seed=cfg.seed, tolerance=cfg.tolerance,
    )
    est, extras = report.estimate, report.to_dict()
    rows = [_mc_row(pair_symbol(SYM_E, SYM_EP), est, report.tolerance)]
    lo, hi = extras["lo"], extras["hi"]
    at = f"at tolerance {report.tolerance:.5f}"
    rate = f"false-witness rate <= {extras['alpha']:.3g}"
    if report.verdict.value == "consistent":
        verdict = (
            f"consistent with the zero prediction: <E,E'> = {est.mean:.5f} and 0 lies "
            f"in [{lo:+.5f}, {hi:+.5f}] {at} ({rate}) [no-correlation-lemma]"
        )
    else:
        if abs(est.mean) > report.tolerance:
            detail = f"<E,E'> = {est.mean:.5f} exceeds tolerance {report.tolerance:.5f}"
        else:
            detail = f"0 lies outside [{lo:+.5f}, {hi:+.5f}] {at}"
        verdict = (
            f"model {report.model} fails the zero prediction ({detail}; {rate}); "
            f"flagged as EACP-violation witness [no-correlation-lemma]"
        )
    return ScenarioResult(
        inputs={"angles": dict(angles), "model": report.model},
        correlations=rows,
        inequalities=[],
        extras=extras,
        verdict=verdict,
    )


_DEFAULT_EVENTS = {"E.x": -1.0, "E.t": 0.0, "P.x": 1.0, "P.t": 0.0}


def _scenario_observer_order(cfg: ScenarioConfig) -> ScenarioResult:
    from .relativity import SpacetimeEvent, boosted_order, find_observer, interval_type
    ev = {**_DEFAULT_EVENTS, **cfg.events}
    e_event = SpacetimeEvent(ev["E.x"], ev["E.t"])
    p_event = SpacetimeEvent(ev["P.x"], ev["P.t"])
    try:
        kind = interval_type(e_event, p_event)
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
    from .inequalities import feasible_quad, feasible_triple
    default = [math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0]
    target = default if cfg.target is None else cfg.target  # [] is an error below
    if len(target) == 3:
        result = feasible_triple(*target)
        names = ["xy", "xz", "yz"]
    elif len(target) == 4:
        result = feasible_quad(*target)
        names = ["xy", "xz", "wy", "wz"]
    else:
        raise ConfigError(f"target must have 3 or 4 correlations, got {len(target)}")
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


def _sweep_configurations(step: float) -> int:
    """Configurations the lhv-sweep runs, at 0, step, ..., round(pi / step) * step."""
    return round(math.pi / step) + 1


def _scenario_lhv_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    from .inequalities import V3_PAIRS
    from .realism import product_sums
    n = cfg.pairs
    step = cfg.grid_step if cfg.grid_step is not None else SWEEP_DEFAULT_STEP
    model = _model(cfg)
    phis = [k * step for k in range(_sweep_configurations(step))]
    pairs = (*V3_PAIRS, (SYM_E, SYM_PP), (SYM_EP, SYM_PP))  # then V4's two with P'
    min_v3_slack = min_v4_margin = math.inf
    max_dev = 0.0
    violations = 0
    for k, phi in enumerate(phis):
        # one complete tuple per pair carries both identities, exact integers:
        # V3 on (E, P, E') = (phi, 2 phi, 3 phi), V4 on the four cross pairs
        block = Block({SYM_E: phi, SYM_EP: 3 * phi, SYM_P: 2 * phi, SYM_PP: 0.0},
                      count=n, index=k)
        s_e_p, s_e_ep, s_p_ep, s_e_pp, s_ep_pp = product_sums(model, block, cfg.seed, pairs)
        exact3 = sica_v3_slack(n, s_e_p, s_e_ep, s_p_ep)
        exact4 = sica_v4_margin(n, s_e_p, s_e_pp, s_p_ep, s_ep_pp)  # <E',P> = <P,E'>
        min_v3_slack = min(min_v3_slack, exact3)
        min_v4_margin = min(min_v4_margin, exact4)
        violations += (exact3 < 0) + (exact4 < 0)

        # LHV two-point law: +/-(1 - 2*delta/pi) at the wrapped gap delta of E and P
        analytic = -(1 - 2 * abs(wrap_angle(phi)) / math.pi)
        max_dev = max(max_dev, abs(s_e_p / n - analytic))
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


@dataclass(frozen=True)
class Scenario:
    """One scenario: the function that runs it, the config keys it reads
    besides scenario, seed and pairs, the blocks it draws (per configuration,
    for a scenario that reads grid-step) and its default model, if it runs one."""

    function: Callable[[ScenarioConfig], ScenarioResult]
    keys: tuple[str, ...]
    blocks: int = 0
    model: str | None = None


_V3_ANGLE_KEYS = tuple(f"angles.{s}" for s in (SYM_E, SYM_EP, SYM_P))
_MODEL_KEYS = ("model", "model.path")
SCENARIOS = {
    "v3-local": Scenario(_scenario_v3_local, (*_V3_ANGLE_KEYS, "hypotheses"), 2),
    "v4-chsh": Scenario(
        _scenario_v4_chsh, (*_V3_ANGLE_KEYS, f"angles.{SYM_PP}", "hypotheses"), 4),
    "v3-eacp": Scenario(_scenario_v3_eacp, (*_V3_ANGLE_KEYS, "hypotheses", *_MODEL_KEYS),
                        1, "collapse-sequential"),
    "no-correlation": Scenario(
        _scenario_no_correlation, (*_V3_ANGLE_KEYS, *_MODEL_KEYS, "tol"), 1, "lhv-sign"),
    "observer-order": Scenario(
        _scenario_observer_order, tuple(f"events.{name}" for name in _DEFAULT_EVENTS)),
    "polytope": Scenario(_scenario_polytope, ("target",)),
    "lhv-sweep": Scenario(_scenario_lhv_sweep, ("grid-step", *_MODEL_KEYS), 1, "lhv-sign"),
}


def run(config: ScenarioConfig) -> ScenarioResult:
    """Execute a registered scenario and time it."""
    start = time.perf_counter()
    result = SCENARIOS[config.scenario].function(config)
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
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in result.correlations:
        cells = [_cell(row.get(key)) for key in ("value", "lo", "hi", "n")]
        writer.writerow([result.scenario, row["symbol"], row["status"], *cells, result.seed])
    for ineq in result.inequalities:
        version = ineq["version"]
        headline = ineq["S"] if version == "V4" else ineq["slack"]
        status = "violated" if ineq["violated"] else "satisfied"
        writer.writerow([result.scenario, version, status, _cell(headline), "", "", "",
                         result.seed])
    return buf.getvalue()


def to_json(result: ScenarioResult) -> str:
    import json
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

# The most characters a config file may hold; a config has about ten keys.
CONFIG_CAP = 2**20


def parse_config_file(path: "str | Path") -> dict[str, str]:
    """Flat key = value lines; # starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in read_lines(path, ConfigError, "config", CONFIG_CAP):
        key, sep, value = raw.split("#", 1)[0].partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _hypotheses(text: str) -> HypothesisSet:
    from .relativity import HypothesisSet  # relativity loads when hypotheses are parsed
    return HypothesisSet.parse(text)


# Each config key besides scenario: the ScenarioConfig field it sets and what its
# text parses to.  A key "angles.X" or "events.X" sets entry X of that mapping.
_KEYS = {
    "seed": ("seed", int), "pairs": ("n_pairs", int),
    "hypotheses": ("hypotheses", _hypotheses), "model": ("model", str),
    "model.path": ("model_path", str), "target": ("target", list),
    "grid-step": ("grid_step", float), "tol": ("tolerance", float),
}


def _parse(key: str, text: str, kind):
    """``kind`` of a config value's text; a ``list`` is of floats, split at commas or spaces."""
    if kind is list:
        return [_parse(key, token, float) for token in text.replace(",", " ").split()]
    try:
        return kind(text)
    except ValueError as exc:
        what = {int: "an integer", float: "a number"}.get(kind)
        raise ConfigError(f"{key} must be {what}, got {text!r}" if what else str(exc)) from exc


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    raw = parse_config_file(args.config) if args.config else {}
    # A flag given on the command line overrides its config key and is
    # checked like one; str() of an int or float parses back exactly.
    for key in ("scenario", "seed", "pairs", "grid-step"):
        if (value := getattr(args, key.replace("-", "_"))) is not None:
            raw[key] = str(value)

    scenario = raw.pop("scenario", None)
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    # ScenarioConfig rejects a key that this scenario does not read.
    known = {"seed", "pairs"}.union(*(row.keys for row in SCENARIOS.values()))
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")

    fields: dict = {"angles": {}, "events": {}}
    for key, text in raw.items():
        if key in _KEYS:
            name, kind = _KEYS[key]
            fields[name] = _parse(key, text, kind)
        else:
            name, _, entry = key.partition(".")
            fields[name][entry] = _parse(key, text, float)
    return ScenarioConfig(scenario, **fields)


def _resolve_out(path: str) -> Path:
    out = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


def main(argv: "list[str] | None" = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="belllab",
        description="Run singlet-experiment scenarios and inequality checks.",
    )
    parser.add_argument(
        "--scenario", help=f"scenario name: {', '.join(sorted(SCENARIOS))}"
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="pairs per estimate (default 10^6; lhv-sweep uses 20000)")
    parser.add_argument("--out", help=f"output file (relative paths join ${OUT_DIR_ENV})")
    parser.add_argument(
        "--format", choices=sorted(FORMATTERS), default="table", help="output format"
    )
    parser.add_argument("--grid-step", type=float, default=None,
                        help="lhv-sweep angle step in radians (default pi/90)")
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


def __getattr__(name: str):
    # bench/tracer.py wraps these three names and correlate in this module;
    # ROADMAP item 1 deletes this hook and the correlate import.
    if name in ("generate_block", "sica_v3_check", "sica_v4_check"):
        from . import inequalities, realism
        return getattr(realism if name == "generate_block" else inequalities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
