"""Smoke test: each experiment script runs on a tiny config and prints JSON."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import count, takewhile
from math import comb
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def spawn(argv, stdout=subprocess.PIPE, buffered=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:], "--json"],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


def run_script(argv):
    done = spawn(argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


SMALL_RUNS = [
    ["four_variable_failures.py", "--trials", "1", "--power", "3"],
    ["theorem_sweep.py", "--trials", "2", "--max-degree", "3"],
    ["gap_report.py", "--random", "1", "--max-degree", "3"],
]

# sha256 of each small run's stdout, byte for byte; a change that moves one
# changes reported behaviour and must say why
SMALL_RUN_DIGESTS = {
    "four_variable_failures.py": "ca068285be8a4a024bcca27ab94359300b612c53c1c64c5868b90e6609af2a97",
    "theorem_sweep.py": "a7ba88b67554aef146ade8c21f38681d71e02db550e4f56c9671a8007bf7510a",
    "gap_report.py": "467d5700905eccdf588eb41425628e8aee3a1b432525dfd2ecf29289b59bee94",
}


@pytest.mark.parametrize("argv", SMALL_RUNS)
def test_script_prints_json(argv):
    done = spawn(argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == SMALL_RUN_DIGESTS[argv[0]]


@pytest.mark.parametrize("argv", SMALL_RUNS)
def test_closed_stdout_keeps_the_exit_code(argv):
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE every time; argparse writes
    # help text into the buffer, which is flushed only on the way out
    for command, buffered in ((argv, False), ([argv[0], "--help"], True)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = spawn(command, stdout=write_end, buffered=buffered)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, ""), command


@pytest.mark.parametrize(
    "argv, message",
    [
        (["theorem_sweep.py", "--trials", "0"], "need at least one trial"),
        (["gap_report.py", "--bound", "0"], "bound must be positive"),
        (["gap_report.py", "--max-degree", "1"], "max degree must be at least 2"),
        (["four_variable_failures.py", "--generators", "3"], "generator range must allow a spanning set"),
        (["theorem_sweep.py", "--bound", str(2**63)], "bound must be at most 2^63 - 1"),
    ],
)
def test_bad_config_is_a_usage_error(argv, message):
    done = spawn(argv)
    assert done.returncode == 2
    assert done.stderr.endswith(f"{argv[0]}: error: {message}\n")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem_sweep.py", "--trials", "1", "--bound", "1", "--min-generators", "14", "--max-generators", "14"],
        ["four_variable_failures.py", "--trials", "1", "--bound", "1", "--generators", "41", "--power", "2"],
        ["gap_report.py", "--attempts", "1", "--bound", "1", "--seed", "1585", "--random", "1"],
    ],
)
def test_genericity_failure_exits_four(argv):
    # bound 1 leaves 13 directions in three variables and 40 in four; at
    # seed 1585 the two lines sampled for random-0 are special in different
    # degrees (4 and 6), so neither restricts to a Hilbert function below
    # the other's
    done = spawn(argv)
    assert done.returncode == 4
    assert done.stderr.startswith("genericity failure: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def _readme_four_variable_table() -> dict[int, list[dict]]:
    """d -> the failures the README lists for five general d-th powers."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^  \| (\d+) \| (.+?) \| [\d.]+ \|$", text, flags=re.MULTILINE)
    failure = r"(\d+) \((\d+) → (\d+), rank (\d+)\)"
    keys = ("degree", "source", "target", "rank")
    return {
        int(d): [dict(zip(keys, map(int, f))) for f in re.findall(failure, cells)] for d, cells in rows
    }


@pytest.mark.parametrize("power", range(3, 9))
def test_readme_four_variable_table(power):
    expected = _readme_four_variable_table()[power]
    assert expected
    out = run_script(
        ["four_variable_failures.py", "--trials", "1", "--generators", "5", "--power", str(power)]
    )
    (trial,) = out["trials"]
    assert trial["failures"] == expected


def test_five_general_quintics_in_four_variables():
    out = run_script(["four_variable_failures.py", "--trials", "1", "--generators", "5", "--power", "5"])
    (trial,) = out["trials"]
    # (1 - t^5)^5 / (1 - t)^4, the Hilbert function of five general quintics
    # cut off before its first non-positive coefficient
    series = (
        sum((-1) ** j * comb(5, j) * comb(m - 5 * j + 3, 3) for j in range(m // 5 + 1))
        for m in count()
    )
    assert trial["hilbert"] == list(takewhile(lambda h: h > 0, series))
    assert not trial["wlp"]
    assert trial["failures"] == [{"degree": 7, "source": 70, "target": 65, "rank": 64}]
