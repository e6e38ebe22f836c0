"""CLI output pinned to committed files for every scenario.

The files in ``tests/golden`` were written by
``belllab --scenario <name> --pairs 3000 --seed 7 --format <fmt>``.
CSV and table output must match them byte for byte.  JSON output must
match after parsing, so that the key order inside a row may change but no
key or value may.
"""

import json
from pathlib import Path

import pytest

from belllab.cli import SCENARIOS, main

GOLDEN = Path(__file__).parent / "golden"


def _render(scenario, fmt, tmp_path, capsys):
    out = tmp_path / f"{scenario}.{fmt}"
    argv = ["--scenario", scenario, "--pairs", "3000", "--seed", "7",
            "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_output_bytes_match_golden(scenario, fmt, tmp_path, capsys):
    expected = (GOLDEN / f"{scenario}.{fmt}").read_bytes()
    assert _render(scenario, fmt, tmp_path, capsys) == expected


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_json_output_matches_golden(scenario, tmp_path, capsys):
    expected = json.loads((GOLDEN / f"{scenario}.json").read_text())
    assert json.loads(_render(scenario, "json", tmp_path, capsys)) == expected
