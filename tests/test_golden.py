"""CLI output pinned to committed files for every scenario.

The files in ``tests/golden`` were written by
``belllab --scenario <name> --pairs 3000 --seed 7 --format <fmt>``.
CSV and table output must match them byte for byte.  JSON output must
match after parsing, so that the key order inside a row may change but no
key or value may.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from belllab import cli
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


@pytest.mark.parametrize("coretype", [None, "Prescott", "Haswell"])
def test_polytope_bytes_do_not_depend_on_the_blas_kernel(coretype):
    """OpenBLAS picks its kernels per CPU; OPENBLAS_CORETYPE forces one."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["--scenario", "polytope", "--pairs", "3000", "--seed", "7", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "belllab.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "polytope.json").read_bytes()
