"""The benchmark's workloads: their operations, inputs and verification.

Every operation has a ``run`` (the only part that is timed) and a
``check`` that returns a list of problems, empty when the output is right.
The checks compare against the paper's closed forms in ``EXPECTED``:
Tsirelson's 2*sqrt(2) for CHSH under {WR, Locality}, the triple
(sqrt(2)/2, sqrt(2)/2, 0) and "sqrt(2) <= 1" under {WR, EACP, FWP}, and
Fine's theorem (the CHSH facets and the triangle facets) for the LP.

Inputs come from the workload seed only: the seed picks the Monte Carlo
seed handed to the program and the LP targets.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SQRT2 = math.sqrt(2.0)

# The paper's closed forms; the smoke test perturbs them to show that
# verification then fails.
EXPECTED = {
    # <E,P>, <E,P'>, <E',P>, <E',P'> = -cos(angle gap) at (pi/4, 3pi/4, pi/2, 0)
    "chsh_terms": {"<E,P>": -SQRT2 / 2, "<E,P'>": -SQRT2 / 2,
                   "<E',P>": -SQRT2 / 2, "<E',P'>": SQRT2 / 2},
    "chsh_s": 2 * SQRT2,
    # <E,P>, <E',P>, <E,E'> at (P, E, E') = (0, 3pi/4, -3pi/4)
    "triple": {"<E,P>": SQRT2 / 2, "<E',P>": SQRT2 / 2, "<E,E'>": 0.0},
    "v3_excess": SQRT2 - 1,
    # collapse-sequential same-side law cos(tE - tP) * cos(tE' - tP)
    "collapse_same_side": math.cos(3 * math.pi / 4) ** 2,
    # best grid falsifications at 1 degree
    "search_v4_local": 2 * SQRT2 - 2,
    "search_v3_local": 0.5,
    "search_v3_eacp": SQRT2 - 1,
}

# Headline substrings of each CLI scenario's verdict at default settings.
VERDICTS = {
    "v3-local": "i.e. sqrt(2) <= 1, which is false",
    "v4-chsh": "i.e. 2*sqrt(2) <= 2 is false",
    "v3-eacp": "i.e. sqrt(2) <= 1, which is false",
    "no-correlation": "[no-correlation-lemma]",
    "observer-order": "both orderings realized",
    "polytope": "lies outside the local polytope",
    "lhv-sweep": "0 violations across",
}

ANALYTIC_TOL = 1e-12  # closed-form values
HEADLINE_TOL = 0.01  # headline Monte Carlo values at N >= 10^6
SEARCH_TOL = 1e-9  # grid-search optima
WITNESS_TOL = 1e-9  # LP witnesses
LP_MARGIN = 1e-6  # LP targets keep this distance from every facet


@dataclass(frozen=True)
class Size:
    """Work per operation.  ``full`` is the benchmark; ``smoke`` is for tests."""

    cli_pairs: int | None  # None: the CLI's own default
    bulk_pairs: int
    sweep_step: float
    grid_step: float
    lp_targets: int


SIZES = {
    "full": Size(None, 4_000_000, math.pi / 720, math.pi / 180, 100),
    "smoke": Size(2_000, 1_000_000, math.pi / 18, math.pi / 36, 4),
}


@dataclass
class Op:
    """One benchmark operation: a timed ``run`` and an untimed ``check``."""

    name: str
    run: Callable
    check: Callable[[object], list[str]]
    pairs: int = 0


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    in_process: bool  # False: every operation is its own CLI process


def scenario_seed(seed: int) -> int:
    """The Monte Carlo seed the program receives for workload seed ``seed``."""
    return random.Random(seed).getrandbits(63)


def mc_tolerance(n: int) -> float:
    return 4.0 / math.sqrt(n)


def _near(problems: list[str], label: str, got, want: float, tol: float) -> None:
    if got is None or not abs(float(got) - want) <= tol:
        problems.append(f"{label}: got {got!r}, want {want!r} within {tol:.3g}")


def _contains(problems: list[str], verdict: str, text: str) -> None:
    if text not in verdict:
        problems.append(f"verdict {verdict!r} lacks {text!r}")


def check_no_correlation(
    value: float, lo: float, hi: float, n: int, verdict: str, expected: float
) -> list[str]:
    """<E,E'> within 4/sqrt(N) of ``expected``, and the verdict the rule implies.

    The program calls a run consistent when |mean| <= 4/sqrt(N) and the
    partial-mean extrema straddle 0.  For a zero-mean model the extrema miss
    0 on about 2% of seeds at N = 10^6 (arcsine law), so the check derives
    the verdict from the row instead of requiring "consistent".
    """
    problems: list[str] = []
    tol = mc_tolerance(n)
    _near(problems, "<E,E'> monte carlo", value, expected, tol)
    consistent = abs(value) <= tol and lo <= 0.0 <= hi
    _contains(problems, verdict, VERDICTS["no-correlation"])
    wanted = "consistent with the zero prediction" if consistent else (
        "flagged as EACP-violation witness"
    )
    _contains(problems, verdict, wanted)
    return problems


# -- cli-cold: one fresh CLI process per operation ---------------------------

CLI_SCENARIOS = (
    "v3-local", "v4-chsh", "v3-eacp", "no-correlation",
    "observer-order", "polytope", "lhv-sweep",
)
_WALL_CLOCK = re.compile(r"# wall clock: ([0-9.]+)s")


@dataclass
class CliRun:
    returncode: int
    stdout: str
    output: bytes | None
    in_run_s: float | None  # the CLI's own wall clock, from stderr
    rss_mb: float


@dataclass
class CliOp:
    """``belllab.cli`` as a fresh process against the working tree."""

    scenario: str
    seed: int
    n_pairs: int | None
    workdir: Path
    env: dict
    reference: bytes | None = field(default=None)

    @property
    def name(self) -> str:
        return self.scenario

    @property
    def pairs(self) -> int:
        """Pairs the scenario draws at these settings."""
        from belllab.cli import DEFAULT_PAIRS, SWEEP_DEFAULT_PAIRS

        if self.scenario == "lhv-sweep":
            per_block = self.n_pairs or SWEEP_DEFAULT_PAIRS
            return 2 * sweep_configurations(math.pi / 90) * per_block
        blocks = {"v3-local": 2, "v4-chsh": 4, "v3-eacp": 1, "no-correlation": 1}
        return blocks.get(self.scenario, 0) * (self.n_pairs or DEFAULT_PAIRS)

    @property
    def out(self) -> Path:
        return self.workdir / f"{self.scenario}.csv"

    def argv(self) -> list[str]:
        argv = ["--scenario", self.scenario, "--format", "csv", "--out", str(self.out),
                "--seed", str(self.seed)]
        if self.n_pairs is not None:
            argv += ["--pairs", str(self.n_pairs)]
        return argv

    def run(self, tracer=None) -> CliRun:
        out = self.out
        out.unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "belllab.cli", *self.argv()]
        else:
            spans = self.workdir / f"{self.scenario}.trace.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans),
                   *self.argv()]
        stdout_path = self.workdir / f"{self.scenario}.stdout"
        stderr_path = self.workdir / f"{self.scenario}.stderr"
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None and spans.exists():
            tracer.adopt(spans, parent=tracer.current())
        match = _WALL_CLOCK.search(stderr_path.read_text())
        return CliRun(
            returncode=proc.returncode,
            stdout=stdout_path.read_text(),
            output=out.read_bytes() if out.exists() else None,
            in_run_s=float(match.group(1)) if match else None,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def check(self, result: CliRun) -> list[str]:
        problems: list[str] = []
        if result.returncode != 0:
            return [f"exit code {result.returncode}"]
        if result.output is None:
            return ["no output file"]
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            problems.append("output differs from the first repetition")
        verdict = result.stdout.strip()
        if self.scenario == "no-correlation":
            rows = list(csv.DictReader(io.StringIO(result.output.decode())))
            row = next((r for r in rows if r["symbol"] == "<E,E'>"), None)
            if row is None:
                return problems + ["no <E,E'> row"]
            problems += check_no_correlation(
                float(row["value"]), float(row["lo"]), float(row["hi"]),
                int(row["n"]), verdict, 0.0,
            )
        else:
            _contains(problems, verdict, VERDICTS[self.scenario])
        return problems


def _cli_cold(seed: int, size: Size, workdir: Path, env: dict) -> Workload:
    s = scenario_seed(seed)
    ops = [CliOp(name, s, size.cli_pairs, workdir, env) for name in CLI_SCENARIOS]
    return Workload(ops, in_process=False)


# -- in-process scenarios ----------------------------------------------------

def _run_scenario(cfg):
    from belllab import cli

    return cli.run(cfg)


def _split_rows(result) -> tuple[dict, dict]:
    analytic = {r["symbol"]: r for r in result.correlations if r["source"] == "analytic"}
    mc = {r["symbol"]: r for r in result.correlations if r["source"] == "monte-carlo"}
    return analytic, mc


def _check_v4_chsh(result) -> list[str]:
    problems: list[str] = []
    analytic, mc = _split_rows(result)
    for symbol, want in EXPECTED["chsh_terms"].items():
        _near(problems, f"{symbol} analytic", analytic[symbol]["value"], want,
              ANALYTIC_TOL)
        row = mc[symbol]
        _near(problems, f"{symbol} monte carlo", row["value"], want,
              mc_tolerance(row["n"]))
    _near(problems, "S analytic", result.inequalities[0]["S"], EXPECTED["chsh_s"],
          ANALYTIC_TOL)
    _near(problems, "S monte carlo", result.extras["S_monte_carlo"],
          EXPECTED["chsh_s"], HEADLINE_TOL)
    _contains(problems, result.verdict, VERDICTS["v4-chsh"])
    return problems


def _check_v3(result, scenario: str, mc_expected: dict) -> list[str]:
    problems: list[str] = []
    analytic, mc = _split_rows(result)
    for symbol, want in EXPECTED["triple"].items():
        _near(problems, f"{symbol} analytic", analytic[symbol]["value"], want,
              ANALYTIC_TOL)
    report = result.inequalities[0]
    if not report["violated"]:
        problems.append("V3 not violated")
    _near(problems, "V3 excess", -report["slack"], EXPECTED["v3_excess"], ANALYTIC_TOL)
    for symbol, (want, headline) in mc_expected.items():
        row = mc[symbol]
        _near(problems, f"{symbol} monte carlo", row["value"], want,
              mc_tolerance(row["n"]))
        if headline:
            _near(problems, f"{symbol} headline", row["value"], want, HEADLINE_TOL)
    _contains(problems, result.verdict, VERDICTS[scenario])
    return problems


def _check_v3_eacp(result) -> list[str]:
    triple = EXPECTED["triple"]
    return _check_v3(result, "v3-eacp", {
        "<E,P>": (triple["<E,P>"], True),
        "<E',P>": (triple["<E',P>"], True),
        "<E,E'>": (EXPECTED["collapse_same_side"], False),
    })


def _check_v3_local(result) -> list[str]:
    triple = EXPECTED["triple"]
    return _check_v3(result, "v3-local", {
        "<E,P>": (triple["<E,P>"], True),
        "<E',P>": (triple["<E',P>"], True),
    })


def _check_no_correlation(expected: float):
    def check(result) -> list[str]:
        row = result.correlations[0]
        return check_no_correlation(
            row["value"], row["lo"], row["hi"], row["n"], result.verdict, expected
        )

    return check


def _mc_bulk(seed: int, size: Size, workdir: Path, env: dict) -> Workload:
    from belllab.cli import ScenarioConfig

    s, n = scenario_seed(seed), size.bulk_pairs
    specs = [
        # name, scenario, model, pairs drawn per n, check
        ("v4-chsh", "v4-chsh", None, 4, _check_v4_chsh),
        ("v3-eacp", "v3-eacp", None, 1, _check_v3_eacp),
        ("v3-local", "v3-local", None, 2, _check_v3_local),
        ("no-correlation-lhv", "no-correlation", "lhv-sign", 1,
         _check_no_correlation(0.0)),
        ("no-correlation-collapse", "no-correlation", "collapse-sequential", 1,
         _check_no_correlation(EXPECTED["collapse_same_side"])),
    ]
    ops = []
    for name, scenario, model, blocks, check in specs:
        cfg = ScenarioConfig(scenario, seed=s, n_pairs=n, model=model)
        ops.append(Op(name, lambda tracer=None, cfg=cfg: _run_scenario(cfg), check,
                      pairs=blocks * n))
    return Workload(ops, in_process=True)


def sweep_configurations(step: float) -> int:
    return round(math.pi / step) + 1


def _lhv_sweep_fine(seed: int, size: Size, workdir: Path, env: dict) -> Workload:
    from belllab.cli import SWEEP_DEFAULT_PAIRS, ScenarioConfig

    cfg = ScenarioConfig("lhv-sweep", seed=scenario_seed(seed), grid_step=size.sweep_step)
    configurations = sweep_configurations(size.sweep_step)

    def check(result) -> list[str]:
        problems: list[str] = []
        if result.extras["configurations"] != configurations:
            problems.append(
                f"{result.extras['configurations']} configurations, want {configurations}"
            )
        if result.extras["violations"] != 0:
            problems.append(f"{result.extras['violations']} identity violations")
        for row in result.correlations:
            if not row["value"] >= 0.0:
                problems.append(f"{row['symbol']} = {row['value']!r} < 0")
        _contains(problems, result.verdict, VERDICTS["lhv-sweep"])
        return problems

    pairs = 2 * configurations * SWEEP_DEFAULT_PAIRS
    op = Op("lhv-sweep", lambda tracer=None: _run_scenario(cfg), check, pairs=pairs)
    return Workload([op], in_process=True)


# -- search-lp: grid search and feasibility LPs, no pairs drawn ---------------

# Facets of the local polytope as rows s with s . c <= bound.
# Triple (c_xy, c_xz, c_yz): the four triangle facets -s . c <= 1 with an
# even number of minus signs in s.
TRIANGLE_FACETS = [
    (np.array(s, dtype=float) * -1.0, 1.0)
    for s in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
]
# Quadruple (c_xy, c_xz, c_wy, c_wz): Fine's theorem, the eight CHSH facets.
CHSH_FACETS = [
    (sign * np.array([-1.0 if i == k else 1.0 for i in range(4)]), 2.0)
    for k in range(4)
    for sign in (1.0, -1.0)
]


def polytope_margin(target: np.ndarray, facets) -> float:
    """Signed distance to the nearest facet or box face; > 0 inside."""
    facet = min((bound - s @ target) / np.linalg.norm(s) for s, bound in facets)
    return min(facet, float(np.min(1.0 - np.abs(target))))


def lp_targets(rng: np.random.Generator, count: int, facets) -> list[np.ndarray]:
    """Uniform targets at least ``LP_MARGIN`` from the polytope boundary."""
    dim = len(facets[0][0])
    out: list[np.ndarray] = []
    while len(out) < count:
        target = rng.uniform(-1.0, 1.0, dim)
        if abs(polytope_margin(target, facets)) >= LP_MARGIN:
            out.append(target)
    return out


def _check_lp(target: np.ndarray, facets):
    feasible = polytope_margin(target, facets) > 0.0

    def check(result) -> list[str]:
        if result.feasible != feasible:
            return [f"target {target.tolist()}: LP says feasible={result.feasible}, "
                    f"facets say {feasible}"]
        if not feasible:
            return []
        problems: list[str] = []
        witness = np.array(result.witness)
        if np.any(witness < 0.0):
            problems.append("negative witness weight")
        _near(problems, "witness mass", witness.sum(), 1.0, WITNESS_TOL)
        for got, want in zip(result.correlations, target):
            _near(problems, "witness correlation", got, float(want), WITNESS_TOL)
        return problems

    return check


def _search_op(name: str, version: str, hypotheses: str, step: float, expected):
    from belllab import inequalities
    from belllab.relativity import DefinabilityEngine, HypothesisSet

    engine = DefinabilityEngine(HypothesisSet.parse(hypotheses))

    def run(tracer=None):
        return inequalities.falsification_search(version, engine.values, step)

    def check(outcome) -> list[str]:
        if expected is None:
            if outcome.found or "<E',P'>" not in (outcome.reason or ""):
                return [f"{name}: want not found for <E',P'>, got {outcome.to_dict()}"]
            return []
        problems: list[str] = []
        if not outcome.found:
            return [f"{name}: nothing found ({outcome.reason})"]
        _near(problems, f"{name} violation", outcome.violation, EXPECTED[expected],
              SEARCH_TOL)
        return problems

    return Op(name, run, check)


def _search_lp(seed: int, size: Size, workdir: Path, env: dict) -> Workload:
    from belllab import inequalities

    step = size.grid_step
    ops = [
        _search_op("search-v3-local", "V3", "WR,Locality", step, "search_v3_local"),
        _search_op("search-v4-local", "V4", "WR,Locality", step, "search_v4_local"),
        _search_op("search-v3-eacp", "V3", "WR,EACP,FWP", step, "search_v3_eacp"),
        _search_op("search-v4-eacp", "V4", "WR,EACP,FWP", step, None),
    ]
    rng = np.random.default_rng(seed)
    for name, facets, solver in (
        ("lp-triple", TRIANGLE_FACETS, "feasible_triple"),
        ("lp-quad", CHSH_FACETS, "feasible_quad"),
    ):
        for target in lp_targets(rng, size.lp_targets, facets):
            values = [float(v) for v in target]
            ops.append(Op(
                name,
                lambda tracer=None, solver=solver, values=values: getattr(
                    inequalities, solver)(*values),
                _check_lp(target, facets),
            ))
    return Workload(ops, in_process=True)


WORKLOADS = {
    "cli-cold": _cli_cold,
    "mc-bulk": _mc_bulk,
    "lhv-sweep-fine": _lhv_sweep_fine,
    "search-lp": _search_lp,
}


def build(name: str, seed: int, size: Size, workdir: Path, env: dict) -> Workload:
    """The operations of workload ``name`` for workload seed ``seed``."""
    return WORKLOADS[name](seed, size, workdir, env)
