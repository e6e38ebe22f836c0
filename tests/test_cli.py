import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from belllab import cli, realism
from belllab.cli import (
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    main,
    parse_config_file,
    run,
)
from belllab.core import SYM_E, SYM_EP, SYM_P, SYM_PP, SYMBOLS, Block, correlate, wrap_angle
from belllab.inequalities import V3_PAIRS, sica_v3_check, sica_v4_check

SQRT2 = math.sqrt(2.0)


def small(scenario, **kw):
    kw.setdefault("n_pairs", 20_000)
    return ScenarioConfig(scenario=scenario, **kw)


class TestRun:
    def test_v3_eacp_default_triple(self):
        result = run(small("v3-eacp"))
        by_symbol = {
            row["symbol"]: row for row in result.correlations
            if row["source"] == "analytic"
        }
        assert by_symbol["<E,P>"]["value"] == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert by_symbol["<E',P>"]["value"] == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert by_symbol["<E,E'>"]["value"] == 0.0
        assert by_symbol["<E,E'>"]["status"] == "zero-by-no-correlation"
        assert result.inequalities[0]["violated"]
        assert "sqrt(2) <= 1" in result.verdict
        assert "[v3-under-eacp-fwp]" in result.verdict

    def test_v3_eacp_monte_carlo_rows(self):
        result = run(small("v3-eacp", seed=7))
        mc = {r["symbol"]: r for r in result.correlations if r["source"] == "monte-carlo"}
        tol = 4 / math.sqrt(20_000)
        assert mc["<E,P>"]["value"] == pytest.approx(SQRT2 / 2, abs=tol)
        assert mc["<E,P>"]["n"] == 20_000

    def test_v4_chsh(self):
        result = run(small("v4-chsh", seed=2))
        assert result.inequalities[0]["S"] == pytest.approx(2 * SQRT2, abs=1e-12)
        assert result.extras["S_monte_carlo"] == pytest.approx(2 * SQRT2, abs=0.05)
        assert "[chsh-under-locality]" in result.verdict

    def test_v3_local(self):
        result = run(small("v3-local", seed=2))
        assert result.inequalities[0]["violated"]
        assert "[v3-under-locality]" in result.verdict

    def test_no_correlation_lhv(self):
        result = run(small("no-correlation", seed=5))
        assert "consistent" in result.verdict

    def test_no_correlation_witness(self):
        result = run(small("no-correlation", seed=5, model="collapse-sequential"))
        assert "EACP-violation witness" in result.verdict

    def test_observer_order(self):
        result = run(small("observer-order"))
        assert result.extras["boost_E_first"] == pytest.approx(-0.5)
        assert result.extras["boost_P_first"] == pytest.approx(0.5)
        assert "both orderings realized" in result.verdict

    def test_polytope_default_is_infeasible(self):
        result = run(small("polytope"))
        assert not result.extras["feasible"]
        assert "outside the local polytope" in result.verdict

    def test_polytope_quad_target(self):
        result = run(small("polytope", target=[0.5, 0.5, 0.5, -0.5]))
        assert result.extras["feasible"]

    def test_lhv_sweep_has_no_violations(self):
        result = run(small("lhv-sweep", n_pairs=2000))
        assert result.extras["violations"] == 0
        assert "[finite-run-identities]" in result.verdict

    @pytest.mark.parametrize(
        "scenario, angles, reduction",
        [
            ("v4-chsh", {"E": 0.3, "E'": 1.9, "P": 1.0, "P'": 0.0},
             "S = 2.665078 > 2 (monte carlo S = "),
            ("v3-local", {"E": 2.0, "E'": -2.0, "P": 0.0},
             "reduces to 1.069790 <= 0.583853, which is false (excess 0.485937)"),
        ],
    )
    def test_verdict_states_the_paper_reduction_only_at_its_values(
        self, scenario, angles, reduction
    ):
        verdict = run(small(scenario, n_pairs=1000, angles=angles)).verdict
        assert verdict.startswith("falsified: ")
        assert reduction in verdict
        assert "i.e." not in verdict and "sqrt(2)" not in verdict
        assert ", i.e. " in run(small(scenario, n_pairs=1000)).verdict

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioConfig(scenario="v5-magic")

    def test_sweep_grid_limit(self):
        limit = cli._SWEEP_MAX_CONFIGURATIONS
        # round(pi / step) + 1 configurations: the default, the benchmark's
        # pi/720 and exactly the limit are accepted; one more is not.
        for step in (None, math.pi / 720, math.pi / (limit - 1)):
            ScenarioConfig(scenario="lhv-sweep", grid_step=step)
        with pytest.raises(ConfigError, match=f"limit of {limit} configurations"):
            ScenarioConfig(scenario="lhv-sweep", grid_step=math.pi / limit)

    def test_library_config_rejects_fields_its_scenario_does_not_read(self):
        from belllab.relativity import HypothesisSet

        # one value per field, keyed by the config key it stands for
        fields = {
            **{f"angles.{s}": {"angles": {s: 0.5}} for s in SYMBOLS},
            **{f"events.{e}": {"events": {e: 0.5}} for e in cli._DEFAULT_EVENTS},
            "hypotheses": {"hypotheses": HypothesisSet.parse("WR,Locality")},
            "model": {"model": "lhv-sign"},
            "model.path": {"model_path": "missing.txt"},
            "target": {"target": [0.5, 0.5, 0.0]},
            "grid-step": {"grid_step": 0.5},
            "tol": {"tolerance": 0.5},
        }
        rejected = 0
        for scenario, row in cli.SCENARIOS.items():
            for key, kw in fields.items():
                if key in row.keys:
                    continue
                with pytest.raises(ConfigError, match=f"{key!r} is not used by scenario"):
                    ScenarioConfig(scenario, n_pairs=1000, **kw)
                rejected += 1
        assert rejected > 50

    def test_library_config_rejects_model_path_without_file_replay(self):
        for scenario, model in (("no-correlation", None), ("lhv-sweep", "lhv"),
                                ("v3-eacp", "collapse")):
            with pytest.raises(ConfigError, match="model.path is read only by file-replay"):
                ScenarioConfig(scenario, model=model, model_path="missing.txt")

    def test_library_config_cannot_skip_its_checks_after_construction(self):
        cfg = ScenarioConfig("polytope")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tolerance = 0.5
        with pytest.raises(TypeError):
            cfg.angles["E"] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_pairs = -5
        result = run(cfg)
        assert result.n_pairs == cli.DEFAULT_PAIRS and result.correlations

    def test_library_config_pairs_cannot_be_zeroed_after_construction(self):
        cfg = ScenarioConfig("v4-chsh", n_pairs=1000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_pairs = 0
        assert run(cfg).n_pairs == 1000

    @pytest.mark.parametrize("kw", [
        {"seed": 1.5}, {"seed": 2.0**63}, {"seed": True}, {"seed": "3"}, {"seed": None},
        {"n_pairs": 10.5}, {"n_pairs": math.nan}, {"n_pairs": True}, {"n_pairs": 1e3},
    ])
    def test_library_config_rejects_a_count_that_is_not_an_integer(self, kw):
        (key,) = kw
        label = "pairs" if key == "n_pairs" else key
        with pytest.raises(ConfigError, match=f"^{label} must be an integer, got "):
            ScenarioConfig("v4-chsh", **kw)

    def test_library_config_takes_numpy_integers_as_ints(self):
        import numpy as np

        cfg = ScenarioConfig("v4-chsh", seed=np.uint64(2**64 - 1), n_pairs=np.int32(10))
        assert (cfg.seed, cfg.n_pairs) == (2**64 - 1, 10)
        assert type(cfg.seed) is int and type(cfg.n_pairs) is int
        assert json.loads(cli.to_json(run(cfg)))["seed"] == 2**64 - 1

    def test_library_config_keeps_copies_of_its_inputs(self):
        angles, target = {"E": 1.0}, [0.5, 0.5, 0.0]
        cfg = ScenarioConfig("v3-local", n_pairs=1000, angles=angles)
        angles["E"] = math.nan
        assert dict(cfg.angles) == {"E": 1.0}
        cfg = ScenarioConfig("polytope", target=target)
        target[0] = 2.0
        assert cfg.target == (0.5, 0.5, 0.0)

    def test_undefined_hypotheses_raise(self):
        from belllab.relativity import HypothesisSet, UndefinedCorrelationError

        cfg = small("v4-chsh", hypotheses=HypothesisSet.parse("WR,EACP"))
        with pytest.raises(UndefinedCorrelationError):
            run(cfg)

    # the defaults shifted by whole turns, with one axis at a large value
    _TURN = 2 * math.pi
    _V3_FAR = {SYM_E: 3 * math.pi / 4 + 3 * _TURN, SYM_EP: -3 * math.pi / 4 - _TURN,
               SYM_P: 5 * _TURN}

    @pytest.mark.parametrize("scenario, angles, model", [
        ("v4-chsh", {SYM_E: math.pi / 4 + _TURN, SYM_EP: 3 * math.pi / 4 - 2 * _TURN,
                     SYM_P: math.pi / 2 + 7 * _TURN, SYM_PP: 1e6}, None),
        ("v3-local", {**_V3_FAR, SYM_P: 1e6}, None),
        ("v3-eacp", _V3_FAR, "collapse-sequential"),
        ("v3-eacp", _V3_FAR, "lhv-sign"),
        ("no-correlation", {**_V3_FAR, SYM_P: -1e6}, "lhv-sign"),
        ("no-correlation", _V3_FAR, "collapse-sequential"),
    ])
    def test_angles_outside_the_branch_change_only_the_inputs(self, scenario, angles, model):
        # every consumer wraps: the analytic status, Block, the LHV half-turns
        # and the Born tests see the same angles as at the wrapped config
        far = run(small(scenario, n_pairs=3000, seed=4, angles=angles, model=model))
        wrapped = {s: wrap_angle(theta) for s, theta in angles.items()}
        near = run(small(scenario, n_pairs=3000, seed=4, angles=wrapped, model=model))
        assert wrapped != angles
        assert far.inputs["angles"] == angles and near.inputs["angles"] == wrapped
        for name in ("correlations", "inequalities", "extras", "verdict"):
            assert getattr(far, name) == getattr(near, name), name


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["--scenario", "v3-eacp", "--pairs", "1000"]) == 0
        assert main(["--scenario", "nope", "--pairs", "10"]) == 2
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = v4-chsh\nhypotheses = WR,EACP\npairs = 1000\n")
        assert main(["--config", str(cfg)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, lines, field",
        [
            pytest.param(["--grid-step", "0"], "scenario = lhv-sweep\n", "grid-step",
                         id="grid-step-0"),
            pytest.param(["--grid-step", "-1"], "scenario = lhv-sweep\n", "grid-step",
                         id="grid-step-negative"),
            pytest.param(["--grid-step", "nan"], "scenario = lhv-sweep\n", "grid-step",
                         id="grid-step-nan"),
            pytest.param([], "scenario = lhv-sweep\ngrid-step = inf\n", "grid-step",
                         id="grid-step-inf"),
            pytest.param([], "scenario = v3-eacp\nangles.E = nan\n", "angles.E",
                         id="angle-nan"),
            pytest.param([], "scenario = v3-eacp\nangles.E = inf\n", "angles.E",
                         id="angle-inf"),
            pytest.param([], "scenario = observer-order\nevents.E.t = nan\n", "events.E.t",
                         id="event-nan"),
            pytest.param([], "scenario = no-correlation\ntol = nan\n", "tol",
                         id="tol-nan"),
            pytest.param([], "scenario = no-correlation\ntol = -1\n", "tol",
                         id="tol-negative"),
            pytest.param([], "scenario = polytope\ntarget = 2, 0, 0\n", "target[0]",
                         id="target-out-of-range"),
            pytest.param([], "scenario = polytope\ntarget = 0, nan, 0\n", "target[1]",
                         id="target-nan"),
            pytest.param([], "scenario = polytope\ntarget = 0, 0, 0, inf\n", "target[3]",
                         id="target-inf"),
            pytest.param([], "scenario = polytope\ntarget =\n", "target", id="target-empty"),
            pytest.param([], "scenario = polytope\ntarget = ,,\n", "target",
                         id="target-only-commas"),
            pytest.param(["--pairs", "10000000000"], "scenario = v4-chsh\n", "pairs",
                         id="pairs-over-work-budget"),
            pytest.param(["--pairs", "100000000"], "scenario = lhv-sweep\n", "pairs",
                         id="sweep-pairs-over-work-budget"),
        ],
    )
    def test_non_finite_or_out_of_range_inputs_exit_2(
        self, flags, lines, field, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "pairs = 1000\n")
        assert main(["--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {field} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "lines, key",
        [
            pytest.param("scenario = no-correlation\nmodel = bogus\n", "model",
                         id="model-unknown"),
            pytest.param("scenario = v3-eacp\nmodel = file-replay\n", "model.path",
                         id="replay-without-path"),
            pytest.param("scenario = no-correlation\nmodel.path = missing.txt\n",
                         "model.path", id="path-with-default-model"),
            pytest.param("scenario = lhv-sweep\nmodel = lhv\nmodel.path = missing.txt\n",
                         "model.path", id="path-with-lhv-model"),
        ],
    )
    def test_bad_model_is_a_config_error(self, lines, key, tmp_path, capsys):
        # main maps only ConfigError and the model errors to 2; a bare
        # ValueError from these inputs would escape it
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "pairs = 1000\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: " in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "lines, key",
        [
            pytest.param("scenario = polytope\nfoo = 1\n", "foo", id="unknown-key"),
            pytest.param("scenario = observer-order\nevents.Q.x = 5\n", "events.Q.x",
                         id="unknown-event"),
            pytest.param("scenario = v3-eacp\nangles.X = 1\n", "angles.X",
                         id="unknown-axis"),
            pytest.param("scenario = polytope\nangles.E = 1\n", "angles.E",
                         id="angle-unused-by-polytope"),
            pytest.param("scenario = v3-eacp\nangles.P' = 7\n", "angles.P'",
                         id="p-prime-unused-by-v3-eacp"),
            pytest.param("scenario = v4-chsh\ntol = 0.1\n", "tol",
                         id="tol-unused-by-v4-chsh"),
            pytest.param("scenario = lhv-sweep\nhypotheses = WR\n", "hypotheses",
                         id="hypotheses-unused-by-lhv-sweep"),
        ],
    )
    def test_unknown_or_unused_config_keys_exit_2(self, lines, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "pairs = 1000\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: " in err
        assert repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "lines",
        [
            pytest.param("scenario = v4-chsh\nangles.P' = 0.1\nhypotheses = WR,Locality\n",
                         id="v4-chsh"),
            pytest.param("scenario = observer-order\nevents.P.t = 0.5\n",
                         id="observer-order"),
            pytest.param("scenario = no-correlation\ntol = 0.5\nmodel = lhv-sign\n",
                         id="no-correlation"),
            pytest.param("scenario = lhv-sweep\ngrid-step = 0.5\nmodel = lhv-sign\n",
                         id="lhv-sweep"),
            pytest.param("scenario = polytope\ntarget = 0.5 0.5 0\nseed = 3\n",
                         id="polytope"),
        ],
    )
    def test_keys_a_scenario_reads_are_accepted(self, lines, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(lines + "pairs = 1000\n")
        assert main(["--config", str(cfg)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "scenario, step, rc",
        [("polytope", "5", 2), ("observer-order", "7", 2), ("v4-chsh", "3", 2),
         ("lhv-sweep", "0.5", 0)],
    )
    def test_grid_step_flag_is_checked_as_its_config_key(self, scenario, step, rc, capsys):
        argv = ["--scenario", scenario, "--grid-step", step, "--pairs", "1000"]
        assert main(argv) == rc
        err = capsys.readouterr().err
        if rc:
            assert f"'grid-step' is not used by scenario {scenario!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step", ["1e-7", "5e-324"])
    def test_sweep_grid_over_the_limit_exits_2_at_once(self, step, capsys):
        start = time.perf_counter()
        assert main(["--scenario", "lhv-sweep", "--grid-step", step]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "configuration error: grid-step " in err
        assert f"limit of {cli._SWEEP_MAX_CONFIGURATIONS} configurations" in err
        assert "Traceback" not in err

    def test_every_scenario_declares_its_config_keys(self):
        for row in cli.SCENARIOS.values():
            for key in row.keys:
                assert key in cli._KEYS or key.partition(".")[0] in ("angles", "events")
            # a scenario has a default model exactly when it reads the model key
            assert bool(row.model) == ("model" in row.keys)

    def test_build_config_knows_exactly_the_keys_the_scenarios_read(self, tmp_path):
        import argparse

        read = {"scenario", "seed", "pairs"}.union(*(r.keys for r in cli.SCENARIOS.values()))
        near = {"angles.Q", "angles.", "angles", "events.E.y", "events", "model.name",
                "grid_step", "tolerance", "n_pairs", "Scenario", "bogus"}
        args = argparse.Namespace(scenario=None, seed=None, pairs=None, grid_step=None,
                                  config=str(tmp_path / "c.cfg"))
        for key in sorted(read | near):
            (tmp_path / "c.cfg").write_text(f"scenario = polytope\n{key} = 1\n")
            try:
                cli.build_config(args)
                error = ""
            except ConfigError as exc:
                error = str(exc)
            assert (error == f"unknown config key {key!r}") == (key not in read), key

    @pytest.mark.parametrize("scenario", ["v3-eacp", "no-correlation", "lhv-sweep"])
    def test_an_empty_model_runs_the_scenarios_default_model(
            self, scenario, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = {scenario}\nmodel =\npairs = 100\n")
        argv = ["--config", str(cfg), "--format", "json"]
        assert main(argv + (["--grid-step", "1.0"] if scenario == "lhv-sweep" else [])) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert inputs["model"] == cli.SCENARIOS[scenario].model

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# three-angle run\n"
            "scenario = v3-eacp\n"
            "seed = 5\n"
            "pairs = 5000\n"
            "angles.P = 0.0\n"
            "angles.E = 2.356194490192345\n"
            "angles.E' = -2.356194490192345\n"
        )
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg), "--seed", "9", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 9  # CLI flag wins over file
        assert payload["pairs"] == 5000
        capsys.readouterr()

    def test_json_output_schema(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main([
            "--scenario", "polytope", "--out", str(out), "--format", "json",
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["scenario"] == "polytope"
        assert "verdict" in payload
        capsys.readouterr()

    def test_csv_output_columns(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main([
            "--scenario", "v3-eacp", "--pairs", "2000",
            "--out", str(out), "--format", "csv",
        ]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == CSV_COLUMNS
        assert any(r[1] == "V3" and r[2] == "violated" for r in rows[1:])
        capsys.readouterr()

    def test_outputs_are_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["--scenario", "v3-eacp", "--pairs", "3000", "--seed", "11", "--format", "json"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BELLLAB_OUT_DIR", str(tmp_path))
        assert main([
            "--scenario", "observer-order", "--out", "sub/obs.json", "--format", "json",
        ]) == 0
        assert (tmp_path / "sub" / "obs.json").exists()
        capsys.readouterr()

    def test_replay_model_through_cli(self, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        lines = ["E=2.356194490192345 E'=-2.356194490192345 P=0.0"]
        lines += ["1 -1 -1", "-1 1 1"] * 50
        vectors.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(
            "scenario = no-correlation\n"
            "model = file-replay\n"
            f"model.path = {vectors}\n"
            "pairs = 100\n"
        )
        assert main(["--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "witness" in captured.out  # E and E' perfectly anti-correlated here

    def test_zero_mean_run_outside_a_checkpoint_interval_is_a_witness(self, tmp_path):
        # E = E' on the first half of the pairs and E = -E' on the second: the
        # mean is exactly 0, but at t = 2048 the partial mean is 1, and its
        # interval 1 +/- tol*sqrt(2) excludes 0
        vectors = tmp_path / "v.txt"
        lines = ["E=2.356194490192345 E'=-2.356194490192345 P=0.0"]
        lines += ["1 1 1"] * 2048 + ["1 -1 1"] * 2048
        vectors.write_text("\n".join(lines) + "\n")
        result = run(ScenarioConfig(
            "no-correlation", n_pairs=4096, model="file-replay", model_path=str(vectors)
        ))
        row = result.correlations[0]
        assert row["value"] == 0.0
        assert row["lo"] == pytest.approx(1 - 0.0625 * math.sqrt(2))
        assert row["lo"] > 0.0 and row["hi"] == 0.0625
        assert result.extras["verdict"] == "witness-of-eacp-violation"
        assert result.extras["alpha"] == pytest.approx(2 * 13 * math.exp(-8))
        assert "(0 lies outside [+0.91161, +0.06250] at tolerance 0.06250;" in result.verdict
        assert "flagged as EACP-violation witness" in result.verdict

    def test_malformed_replay_is_config_error(self, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_text("E=0.0 P=0.0\n1 2\n")
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(
            "scenario = no-correlation\n"
            "model = file-replay\n"
            f"model.path = {vectors}\n"
            "angles.E = 0.0\n"
            "angles.E' = 0.0\n"
            "angles.P = 0.0\n"
            "pairs = 1\n"
        )
        assert main(["--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"E=inf E'=0.0 P=0.0\n1 1 1\n", id="infinite-angle"),
            pytest.param(b"\xff\xfe\n", id="not-utf-8"),
        ],
    )
    def test_unreadable_replay_is_config_error(self, content, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_bytes(content)
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(
            "scenario = no-correlation\n"
            "model = file-replay\n"
            f"model.path = {vectors}\n"
            "pairs = 1\n"
        )
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: " in err and str(vectors) in err


def _recorded_blocks(monkeypatch):
    """The blocks that later runs hand to ``realism.correlate_block`` or
    ``realism.product_sums``, in order."""
    blocks = []
    for name in ("correlate_block", "product_sums"):
        def recording(model, block, seed, pairs, real=getattr(realism, name)):
            blocks.append(block)
            return real(model, block, seed, pairs)

        monkeypatch.setattr(realism, name, recording)
    return blocks


@pytest.mark.parametrize(
    "scenario, step",
    [(name, None) for name in sorted(cli.SCENARIOS)]
    + [("lhv-sweep", step) for step in ("0.5", repr(2 * math.pi / 3), repr(math.pi / 720))],
)
def test_work_budget_counts_the_blocks_each_scenario_draws(
    scenario, step, monkeypatch, capsys
):
    # the fail-fast budget multiplies pairs by these block counts
    blocks = _recorded_blocks(monkeypatch)
    argv = ["--scenario", scenario, "--pairs", "10"]
    assert main(argv + (["--grid-step", step] if step else [])) == 0
    want = cli.SCENARIOS[scenario].blocks
    if scenario == "lhv-sweep":
        configurations = round(math.pi / float(step or cli.SWEEP_DEFAULT_STEP)) + 1
        want *= configurations
        assert [block.index for block in blocks] == list(range(configurations))
        assert {len(block.axes) for block in blocks} == {4}
    assert len(blocks) == want
    assert len({block.index for block in blocks}) == want
    assert {block.count for block in blocks} <= {10}


# -- lhv-sweep against the OutcomeSequence API ---------------------------------

def _sweep_family(step, n):
    """Configuration k of a sweep: (E, E', P, P') = (phi, 3 phi, 2 phi, 0) at
    phi = k * step, in a block of index k."""
    phis = [k * step for k in range(cli._sweep_configurations(step))]
    return [Block({SYM_E: phi, SYM_EP: 3 * phi, SYM_P: 2 * phi, SYM_PP: 0.0}, count=n, index=k)
            for k, phi in enumerate(phis)]


def _run_sweep(monkeypatch, step, n, seed=0):
    """The sweep's result and the blocks it drew."""
    blocks = _recorded_blocks(monkeypatch)
    return run(ScenarioConfig("lhv-sweep", seed=seed, n_pairs=n, grid_step=step)), blocks


class TestSweepAgainstSequences:
    """The sweep's streamed identity sums equal ``sica_v3_check`` and
    ``sica_v4_check`` on whole sequences from ``generate_block``, block by
    block: V3 on (E, P, E') and V4 on the four cross pairs of one tuple."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_identities_equal_the_sequence_checks_on_the_same_blocks(self, seed, monkeypatch):
        n, step = 500, math.pi / 36
        got = {"sica_v3_slack": [], "sica_v4_margin": []}  # each configuration's value
        for name, values in got.items():
            def recording(*sums, real=getattr(cli, name), values=values):
                values.append(real(*sums))
                return values[-1]
            monkeypatch.setattr(cli, name, recording)
        result, blocks = _run_sweep(monkeypatch, step, n, seed)
        assert blocks == _sweep_family(step, n)
        v3, v4 = [], []
        for block in blocks:
            seqs = realism.generate_block(realism.LHVSign(), block, seed)
            v3.append(sica_v3_check(seqs[SYM_E], seqs[SYM_P], seqs[SYM_EP]))
            v4.append(sica_v4_check(seqs[SYM_EP], seqs[SYM_E], seqs[SYM_P], seqs[SYM_PP]))
        assert got == {"sica_v3_slack": v3, "sica_v4_margin": v4}
        assert min(v3) != max(v3) and min(v4) != max(v4)
        rows = {row["symbol"]: row["value"] for row in result.correlations}
        assert rows == {"min:V3.slack": min(v3), "min:V4.margin": min(v4)}
        assert result.extras["violations"] == sum(v < 0 for v in v3 + v4) == 0

    def test_the_family_passes_through_both_headline_configurations(self, monkeypatch):
        _, blocks = _run_sweep(monkeypatch, math.pi / 36, 1)
        at_v4 = dict(blocks[9].axes)  # phi = pi/4
        assert at_v4 == pytest.approx(cli.V4_DEFAULT_ANGLES, abs=1e-15)
        at_v3 = blocks[27].axes  # phi = 3 pi/4: V3's defaults reflected
        for a, b in V3_PAIRS:
            want = math.cos(cli.V3_DEFAULT_ANGLES[a] - cli.V3_DEFAULT_ANGLES[b])
            assert math.cos(wrap_angle(at_v3[a] - at_v3[b])) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("step", [2 * math.pi / 3, 0.8, math.pi / 90])
    def test_two_point_deviation_uses_the_wrapped_gap(self, step, monkeypatch):
        # the last angle passes pi at the first two steps: 4 pi/3 and 3.2
        n, seed = 2000, 3
        result, blocks = _run_sweep(monkeypatch, step, n, seed)
        deviations = []
        for block in blocks:
            seqs = realism.generate_block(realism.LHVSign(), block, seed)
            gap = abs(wrap_angle(block.axes[SYM_P] - block.axes[SYM_E]))  # in [0, pi]
            law = -(1 - 2 * gap / math.pi)  # E and P on opposite sides
            deviations.append(abs(correlate(seqs[SYM_E], seqs[SYM_P]).mean - law))
        assert result.extras["max_two_point_deviation"] == pytest.approx(
            max(deviations), abs=1e-12)


class TestSweepModels:
    """The sweep's product sums over chunk edges and under the other models."""

    def test_blocks_of_two_chunks_keep_both_identities(self, monkeypatch):
        # CHUNK_PAIRS as shipped, so every block is one whole chunk and 3
        # pairs more; at step 2 pi/3 the last angle passes pi
        n, step, seed = realism.CHUNK_PAIRS + 3, 2 * math.pi / 3, 11
        got = {"sica_v3_slack": [], "sica_v4_margin": []}
        for name, values in got.items():
            def recording(*sums, real=getattr(cli, name), values=values):
                values.append(real(*sums))
                return values[-1]
            monkeypatch.setattr(cli, name, recording)
        result, blocks = _run_sweep(monkeypatch, step, n, seed)
        assert blocks == _sweep_family(step, n)
        want = {"sica_v3_slack": [], "sica_v4_margin": []}
        for block in blocks:
            seqs = realism.generate_block(realism.LHVSign(), block, seed)
            want["sica_v3_slack"].append(sica_v3_check(seqs[SYM_E], seqs[SYM_P], seqs[SYM_EP]))
            want["sica_v4_margin"].append(
                sica_v4_check(seqs[SYM_EP], seqs[SYM_E], seqs[SYM_P], seqs[SYM_PP]))
        assert got == want
        assert result.extras["violations"] == 0

    def test_collapse_sequential_exits_2_for_want_of_a_second_p_axis(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = lhv-sweep\nmodel = collapse-sequential\npairs = 10\n")
        assert main(["--config", str(cfg), "--grid-step", "1.0"]) == 2
        err = capsys.readouterr().err
        want = "configuration error: collapse-sequential defines no second axis on the P side"
        assert want in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step, configurations", [("1.0", 4), (None, 91), ("7", 1)])
    def test_file_replay_sweeps_one_configuration_or_exits_2_before_reading(
        self, step, configurations, monkeypatch, tmp_path, capsys
    ):
        path = tmp_path / "vectors.txt"
        path.write_text("E=0 E'=0 P=0 P'=0\n" + "1 1 -1 1\n" * 3)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = lhv-sweep\nmodel = file-replay\nmodel.path = {path}\n"
                       "pairs = 3\n")
        reads, read = [], realism.FileReplay._read
        monkeypatch.setattr(realism.FileReplay, "_read",
                            lambda self, block: reads.append(block) or read(self, block))
        argv = ["--config", str(cfg), *(["--grid-step", step] if step else [])]
        if configurations == 1:
            assert main(argv) == 0
            assert "0 violations across 1 configurations" in capsys.readouterr().out
            assert len(reads) == 1
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"gives {configurations} configurations, but a replay header fixes one" in err
        assert "grid-step of at least 2*pi with file-replay" in err
        assert "angle mismatch" not in err and reads == []

    def test_file_replay_gives_its_rows_product_sums(self, monkeypatch, tmp_path):
        # a step over 2 pi leaves the one configuration phi = 0: all four axes at 0
        rows = [(1, 1, -1, 1), (-1, 1, 1, 1), (1, -1, -1, -1), (1, 1, 1, -1), (-1, -1, 1, 1)]
        path = tmp_path / "vectors.txt"
        body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        path.write_text("E=0 E'=0 P=0 P'=0\n" + body)
        sums = []

        def recording(*args, real=realism.product_sums):
            sums.append(real(*args))
            return sums[-1]

        monkeypatch.setattr(realism, "product_sums", recording)
        cfg = ScenarioConfig("lhv-sweep", n_pairs=len(rows), grid_step=7.0,
                             model="file-replay", model_path=str(path))
        result = run(cfg)
        index = dict(zip((SYM_E, SYM_EP, SYM_P, SYM_PP), range(4)))
        pairs = (*V3_PAIRS, (SYM_E, SYM_PP), (SYM_EP, SYM_PP))
        assert sums == [[sum(r[index[a]] * r[index[b]] for r in rows) for a, b in pairs]]
        assert result.extras["configurations"] == 1
        assert result.inputs["model"] == "file-replay"


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n# comment\nscenario = polytope  # trailing\n\nseed = 3\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"scenario": "polytope", "seed": "3"}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario polytope\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(cfg)

    def test_text_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot read config" in err and "Traceback" not in err

    def test_a_nul_in_the_path_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config_file("c\x00.cfg")

    def test_bad_target(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = polytope\ntarget = 0.5, x, 0\n")
        assert main(["--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_target_needs_three_or_four(self, capsys):
        assert main(["--scenario", "polytope"]) == 0
        capsys.readouterr()
        cfg = ScenarioConfig(scenario="polytope", target=[0.5, 0.5])
        with pytest.raises(ConfigError, match="3 or 4"):
            run(cfg)

    def test_bad_seed_type(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = polytope\nseed = abc\n")
        assert main(["--config", str(cfg)]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_analytic_rows_are_definite_and_carry_no_bounds(scenario):
    # a correlation that is not definite ends the run with exit 3, so no
    # bounded or undefined status ever reaches a row
    for row in run(small(scenario, n_pairs=1000)).correlations:
        if row["source"] == "analytic":
            assert row["status"] in ("defined", "zero-by-no-correlation"), row
            assert row["lo"] is None and row["hi"] is None, row


def _probe(code: str, *args: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this checkout's
    belllab, with ``args`` as its arguments; fails the test on a non-zero exit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_scenario_loads_scipy(tmp_path):
    """Feasibility is closed-form, so no scenario needs scipy at run time."""
    triple, quad = tmp_path / "triple.cfg", tmp_path / "quad.cfg"
    triple.write_text("scenario = polytope\ntarget = 0.5, 0.5, 0\n")
    quad.write_text("scenario = polytope\ntarget = 0.5, 0.5, 0.5, -0.5\n")
    runs = [["--scenario", name, "--pairs", "1000"] for name in sorted(cli.SCENARIOS)]
    runs += [["--config", str(triple)], ["--config", str(quad)]]
    probe = """
        import contextlib, io, json, sys
        import belllab, belllab.cli
        loaded = {"import": "scipy" in sys.modules}
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert belllab.cli.main(argv) == 0, argv
            loaded[" ".join(argv)] = "scipy" in sys.modules
        print(json.dumps(loaded))
    """
    loaded = json.loads(_probe(probe, json.dumps(runs)))
    assert len(loaded) == 1 + len(runs)
    assert not any(loaded.values()), loaded


def test_analytic_scenarios_run_without_numpy():
    """observer-order and polytope are plain arithmetic: with numpy unimportable
    they still print their golden bytes, and a bad scenario still exits 2.
    Neither they nor the import load ctypes, so the heap policy
    (``core.keep_heap_mapped``) never runs on those paths."""
    golden = Path(__file__).parent / "golden"
    runs = [["--scenario", name, "--pairs", "3000", "--seed", "7", "--format", fmt]
            for name in ("observer-order", "polytope") for fmt in ("csv", "json", "table")]
    runs.append(["--scenario", "bogus"])
    probe = """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # every import of numpy now raises ImportError
        import belllab.cli
        if "ctypes" in sys.modules:
            sys.exit("import belllab.cli loaded ctypes")
        results = []
        for argv in json.loads(sys.argv[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = belllab.cli.main(argv)
            results.append([rc, out.getvalue(), err.getvalue()])
            if "ctypes" in sys.modules:
                sys.exit(f"{argv} loaded ctypes")
        print(json.dumps(results))
    """
    *rendered, (rc, _, err) = json.loads(_probe(probe, json.dumps(runs)))
    for argv, (code, out, _) in zip(runs, rendered):
        assert code == 0, argv
        assert out == (golden / f"{argv[1]}.{argv[-1]}").read_text(), argv
    assert rc == 2 and "unknown scenario 'bogus'" in err


@pytest.mark.parametrize("argv, unloaded", [
    ([], ("belllab.inequalities", "belllab.relativity", "belllab.quantum", "belllab.realism",
          "numpy", "argparse", "csv", "json")),
    (["--scenario", "observer-order"], ("belllab.inequalities", "numpy", "csv", "json")),
    (["--scenario", "no-correlation", "--pairs", "1000", "--format", "csv"],
     ("belllab.inequalities", "json")),
    (["--scenario", "polytope", "--format", "csv"], ("belllab.relativity", "numpy", "json")),
    (["--scenario", "lhv-sweep", "--pairs", "10"], ("belllab.relativity", "csv", "json")),
    (["--scenario", "v3-eacp", "--pairs", "1000"], ("csv", "json")),
])
def test_modules_load_only_where_they_are_used(argv, unloaded):
    """``import belllab.cli`` loads core and cli alone; a run adds the modules
    its scenario calls, and json or csv only for that output format."""
    probe = """
        import contextlib, io, sys
        before = set(sys.modules)
        import belllab.cli
        if sys.argv[1:]:
            with contextlib.redirect_stdout(io.StringIO()):
                if belllab.cli.main(sys.argv[1:]) != 0:
                    sys.exit(f"{sys.argv[1:]} failed")
        print(*sorted(set(sys.modules) - before))
    """
    loaded = set(_probe(probe, *argv).split())
    assert {"belllab.cli", "belllab.core"} <= loaded
    assert not loaded & set(unloaded), argv


def test_names_the_bench_tracer_wraps_are_their_home_objects():
    """bench/tracer.py wraps these names on ``cli`` and ``relativity``; they must
    be the objects their home modules define, also where a hook serves them."""
    from belllab import core, inequalities, relativity
    assert cli.correlate is relativity.correlate is core.correlate
    assert cli.generate_block is relativity.generate_block is realism.generate_block
    assert cli.sica_v3_check is inequalities.sica_v3_check
    assert cli.sica_v4_check is inequalities.sica_v4_check
    assert relativity.UndefinedCorrelationError is core.UndefinedCorrelationError
    assert cli.sica_v3_slack is inequalities.sica_v3_slack is core.sica_v3_slack
    assert cli.sica_v4_margin is inequalities.sica_v4_margin is core.sica_v4_margin
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cli, "no_such_name")


@pytest.mark.parametrize(
    "events, rc, message",
    [
        ("events.E.x = 1e-170\nevents.P.x = 0\n", 0, None),
        ("events.E.x = -1e308\nevents.E.t = -1e308\nevents.P.x = 1e308\n"
         "events.P.t = 1e308\n", 2, "is not finite"),
        ("events.E.x = 0\nevents.P.t = 0.9999999999999999\n", 2,
         "too close to lightlike separation"),
        # coordinates large next to the separation: two boosted times lost
        # its sign to cancellation and the run printed a failed ordering
        ("events.E.x = -2.70456676232709e-19\nevents.E.t = -3.9853228790446214e-20\n"
         "events.P.x = -2.7073252855964105e-19\nevents.P.t = -3.957737646351418e-20\n",
         0, None),
        ("events.E.x = 0\nevents.P.x = 1.0000000000000002\nevents.P.t = 1\n", 2,
         "too close to lightlike separation"),
    ],
    ids=["tiny-separation", "overflowing-separation", "velocity-rounds-to-one",
         "large-coordinates", "boosted-separation-rounds-to-zero"],
)
def test_observer_order_at_the_limits_of_a_double(events, rc, message, tmp_path, capsys):
    cfg = tmp_path / "events.cfg"
    cfg.write_text("scenario = observer-order\n" + events)
    assert main(["--config", str(cfg)]) == rc
    out, err = capsys.readouterr()
    if rc == 0:
        assert "both orderings realized" in out
    else:
        assert "configuration error: " in err and "SpacetimeEvent(x=" in err  # names them
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "target, feasible",
    [
        ("1, 0, 0", True),              # an edge of the tetrahedron
        ("1, 1, 1", True),              # a vertex
        ("1, 1, -1", False),            # a box corner outside, slack 2/3
        ("0.5, 0.5, 0.5, -0.5", True),  # on a CHSH facet
        ("1, 0, 1, 0", True),           # on a CHSH facet and the box
        ("1, 1, 1, -1", False),         # a box corner outside, slack 1/2
    ],
)
def test_polytope_on_boundary_targets_exits_0(tmp_path, capsys, target, feasible):
    cfg = tmp_path / "boundary.cfg"
    cfg.write_text(f"scenario = polytope\ntarget = {target}\n")
    out = tmp_path / "out.json"
    assert main(["--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["extras"]["feasible"] is feasible


_FUZZ_NUMBER = st.floats() | st.sampled_from([math.pi, -math.pi, 1e308, 5e-324])
# Replay files under the test's tmp_path, by name; "." is the directory itself.
_FUZZ_REPLAYS = {
    "valid.txt": b"E=2.356194490192345 E'=-2.356194490192345 P=0.0\n"
                 + b"1 -1 -1\n-1 1 1\n" * 250,
    "malformed.txt": b"E=0.0 P=0.0\n1 2\n",
    "infinite-angle.txt": b"E=inf E'=0.0 P=0.0\n1 1 1\n",
    "empty.txt": b"",
    "not-utf8.txt": b"E=0.0 P=0.0\n1 \xff\n",
}
# A strategy for the text of each config key the fuzz test sets.
_FUZZ_VALUES = {
    **{f"angles.{s}": _FUZZ_NUMBER.map(repr) for s in SYMBOLS},
    **{f"events.{name}": _FUZZ_NUMBER.map(repr) for name in cli._DEFAULT_EVENTS},
    "model": st.sampled_from(
        ["lhv-sign", "collapse-sequential", "file-replay", "replay", "bogus", ""]
    ),
    "model.path": st.sampled_from([*_FUZZ_REPLAYS, "missing.txt", ".", "nul\x00byte"]),
    "target": st.lists(
        _FUZZ_NUMBER | st.sampled_from([2.0, -1.5, math.nan, math.inf, -math.inf]),
        min_size=2, max_size=5,
    ).map(lambda values: ", ".join(map(repr, values))),
    "tol": _FUZZ_NUMBER.map(repr),
    "hypotheses": st.lists(
        st.sampled_from(["WR", "Locality", "EACP", "FWP", "QM", "bogus"]), max_size=4
    ).map(",".join),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scenario=st.sampled_from(sorted(cli.SCENARIOS)),
    # small counts run quickly; counts past the work budget exit 2 at once
    # wherever pairs are drawn
    pairs=st.integers(-1, 500) | st.integers(cli._MAX_PAIRS_PER_RUN + 1, 10**12),
    step=st.none() | st.floats(min_value=math.pi / 90),
    seed=st.none() | st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_main_keeps_the_exit_code_contract(tmp_path, scenario, pairs, step, seed, data):
    """Any scenario, pair count, grid step and config keys: 0, 2, 3 or 4.

    The grid step and most keys are ones the scenario reads, so most runs
    get past the unused-key check; any known key may still turn up.
    """
    argv = ["--scenario", scenario, "--pairs", str(pairs)]
    if step is not None and scenario == "lhv-sweep":
        argv += ["--grid-step", repr(step)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    own = [k for k in cli.SCENARIOS[scenario].keys if k in _FUZZ_VALUES]
    keys = data.draw(st.sets(st.sampled_from(own), max_size=4))
    keys |= data.draw(st.sets(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=1))
    if keys:
        for name, content in _FUZZ_REPLAYS.items():
            (tmp_path / name).write_bytes(content)
        lines = []
        for key in sorted(keys):
            value = data.draw(_FUZZ_VALUES[key], label=key)
            lines.append(f"{key} = {tmp_path / value if key == 'model.path' else value}\n")
        # raw bytes after the keys, often not UTF-8
        raw = data.draw(st.just(b"") | st.binary(max_size=6), label="raw bytes")
        config = tmp_path / "fuzz.cfg"
        config.write_bytes("".join(lines).encode() + raw)
        argv += ["--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
