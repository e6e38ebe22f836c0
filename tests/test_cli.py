import contextlib
import csv
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

from belllab import cli
from belllab.cli import (
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    main,
    parse_config_file,
    run,
)
from belllab.core import SYMBOLS

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

    def test_undefined_hypotheses_raise(self):
        from belllab.relativity import HypothesisSet, UndefinedCorrelationError

        cfg = small("v4-chsh", hypotheses=HypothesisSet.parse("WR,EACP"))
        with pytest.raises(UndefinedCorrelationError):
            run(cfg)


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
        assert set(cli._SCENARIO_KEYS) == set(cli.SCENARIOS)

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


def test_scipy_loads_with_the_first_lp_only():
    """scipy is most of the start-up time; only the LP scenario may load it."""
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        import belllab, belllab.cli
        loaded = {"import": "scipy" in sys.modules}
        for argv in (["observer-order"], ["v3-local", "--pairs", "1000"], ["polytope"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert belllab.cli.main(["--scenario", *argv]) == 0
            loaded[argv[0]] = "scipy" in sys.modules
        print(json.dumps(loaded))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": False, "observer-order": False, "v3-local": False, "polytope": True,
    }


_FUZZ_NUMBER = st.floats() | st.sampled_from([math.pi, -math.pi, 1e308, 5e-324])
# Replay files under the test's tmp_path, by name; "." is the directory itself.
_FUZZ_REPLAYS = {
    "valid.txt": "E=2.356194490192345 E'=-2.356194490192345 P=0.0\n"
                 + "1 -1 -1\n-1 1 1\n" * 250,
    "malformed.txt": "E=0.0 P=0.0\n1 2\n",
    "infinite-angle.txt": "E=inf E'=0.0 P=0.0\n1 1 1\n",
    "empty.txt": "",
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
    own = [k for k in cli._SCENARIO_KEYS[scenario] if k in _FUZZ_VALUES]
    keys = data.draw(st.sets(st.sampled_from(own), max_size=4))
    keys |= data.draw(st.sets(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=1))
    if keys:
        for name, text in _FUZZ_REPLAYS.items():
            (tmp_path / name).write_text(text)
        lines = []
        for key in sorted(keys):
            value = data.draw(_FUZZ_VALUES[key], label=key)
            lines.append(f"{key} = {tmp_path / value if key == 'model.path' else value}\n")
        config = tmp_path / "fuzz.cfg"
        config.write_text("".join(lines))
        argv += ["--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
