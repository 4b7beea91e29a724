"""Smoke test: each experiment script runs on a tiny config and prints JSON."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["four_variable_failures.py", "--trials", "1", "--power", "3"],
        ["theorem_sweep.py", "--trials", "2", "--max-degree", "3"],
        ["gap_report.py", "--random", "1", "--max-degree", "3"],
    ],
)
def test_script_prints_json(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:], "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)
