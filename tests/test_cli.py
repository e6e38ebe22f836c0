import csv
import io
import json
import math

import pytest

from belllab import cli
from belllab.cli import (
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    main,
    parse_config_file,
    run,
)

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
