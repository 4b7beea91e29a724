"""Command line behaviour: exit codes, JSON payloads, human output."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from wlpcheck import GenericityError, cli, splitting

SQUARES = "corpus:three-squares"
QUINTICS = "corpus:mixed-quintics-and-monomials"
NOT_ARTINIAN = '{"variables": 3, "powers": [{"form": [1, 0, 0], "power": 2}]}'


def _python(*args: str, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's package; ``env`` overrides
    variables, and a None value unsets one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full.get("PYTHONPATH")]))
    for key, value in (env or {}).items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return subprocess.run([sys.executable, *args], env=full, timeout=60, **kwargs)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# -- exit codes ---------------------------------------------------------------


def test_hilbert_ok(capsys):
    code, out, _ = run(capsys, "hilbert", SQUARES)
    assert code == 0
    assert "1 3 3 1" in out
    assert "socle degree: 3" in out


def test_wlp_true_is_zero(capsys):
    code, out, _ = run(capsys, "wlp", SQUARES)
    assert code == 0
    assert "holds" in out


def test_wlp_false_is_one(capsys):
    code, out, _ = run(capsys, "wlp", QUINTICS)
    assert code == 1
    assert "fails" in out


def test_parse_error_is_two(capsys):
    code, _, err = run(capsys, "hilbert", '{"variables": 3, "powers": "x"}')
    assert code == 2
    assert "input error" in err


def test_unknown_corpus_is_two(capsys):
    code, _, err = run(capsys, "hilbert", "corpus:nope")
    assert code == 2
    assert "no such corpus entry" in err


def test_corpus_names_outside_the_corpus_are_two(tmp_path):
    # a corpus name is never joined onto the corpus directory as a path: a
    # bundled file reached through "..", or a deeply nested file elsewhere,
    # is an unknown entry, not a file to read or a traceback
    corpus = Path(cli.__file__).resolve().parent / "corpus"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for name in ("../corpus/three-squares", os.path.relpath(tmp_path / "deep", corpus)):
        done = _python("-m", "wlpcheck.cli", "hilbert", f"corpus:{name}", capture_output=True, text=True)
        assert done.returncode == 2
        assert "no such corpus entry" in done.stderr
        assert "Traceback" not in done.stderr


def test_unreadable_file_is_two(capsys, tmp_path):
    code, _, err = run(capsys, "hilbert", str(tmp_path / "gone.json"))
    assert code == 2
    assert "cannot read" in err


def test_deeply_nested_json_is_two(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 3000, encoding="utf-8")
    for command in ("hilbert", "wlp", "slp", "split", "predict"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("input error:")
        assert "Traceback" not in err


def test_not_artinian_is_three(capsys):
    code, _, err = run(capsys, "hilbert", NOT_ARTINIAN)
    assert code == 3
    assert "not Artinian" in err


def test_genericity_failure_is_four(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise GenericityError("no usable form found")

    monkeypatch.setattr(splitting, "generic_splitting_type", explode)
    code, _, err = run(capsys, "split", SQUARES)
    assert code == 4
    assert "genericity failure" in err


def test_bad_bound_for_random_trials_is_two(capsys):
    code, _, err = run(capsys, "random-trials", "--bound", "0", "--count", "1")
    assert code == 2
    assert err == "input error: bound must be positive\n"


def test_wrong_variable_count_for_split_is_two(capsys):
    binary = '{"variables": 2, "powers": [{"form": [1, 0], "power": 2}, {"form": [0, 1], "power": 2}, {"form": [1, 1], "power": 2}]}'
    code, _, err = run(capsys, "split", binary)
    assert code == 2
    assert "three variables" in err


# -- JSON payloads ---------------------------------------------------------------


def test_hilbert_json(capsys):
    code, payload, _ = run_json(capsys, "hilbert", SQUARES)
    assert code == 0
    assert payload["hilbert"] == [1, 3, 3, 1]
    assert payload["socle_degree"] == 3
    assert payload["ideal"]["generator_degrees"] == [2, 2, 2]


def test_wlp_json_structure(capsys):
    code, payload, _ = run_json(capsys, "wlp", QUINTICS, "--seed", "9")
    assert code == 1
    assert payload["holds"] is False
    assert payload["failures"] == [[1, 4]]
    # items, not dicts, so the key order is pinned too
    assert list(payload["config"].items()) == [
        ("seed", 9),
        ("bound", 100),
        ("attempts", 5),
        ("generator", "splitmix64"),
    ]
    bad = [list(r.items()) for r in payload["records"] if not r["maximal"]]
    assert bad == [
        [
            ("power", 1),
            ("degree", 4),
            ("source_dim", 13),
            ("target_dim", 13),
            ("rank", 12),
            ("maximal", False),
        ]
    ]


def test_split_json(capsys):
    code, payload, _ = run_json(capsys, "split", QUINTICS)
    assert code == 0
    assert list(payload["splitting"]) == [
        "shifts", "restricted_socle", "low_count", "high_count", "tail", "gap", "balanced"
    ]
    assert payload["splitting"]["shifts"] == [5, 5, 6, 7]
    assert payload["splitting"]["restricted_socle"] == 5
    assert payload["splitting"]["gap"] == 2
    assert payload["splitting"]["balanced"] is False
    assert len(payload["witness"]) == 3


def test_predict_json_agrees_with_wlp(capsys):
    code_direct, direct, _ = run_json(capsys, "wlp", QUINTICS)
    code_pred, predicted, _ = run_json(capsys, "predict", QUINTICS)
    assert code_direct == code_pred == 1
    direct_ranks = {(r["degree"], r["rank"]) for r in direct["records"]}
    predicted_ranks = {(r["degree"], r["rank"]) for r in predicted["records"]}
    assert predicted_ranks == direct_ranks
    assert predicted["failures"] == [4]
    assert list(predicted["records"][0]) == [
        "degree", "source_dim", "target_dim", "rank", "kernel_dim", "cokernel_dim", "maximal"
    ]


def test_slp_json(capsys):
    code, payload, _ = run_json(capsys, "slp", "corpus:four-general-cubes")
    assert code == 1
    assert payload["failures"] == [[3, 1]]
    assert list(payload["records"][0]) == [
        "power", "degree", "source_dim", "target_dim", "rank", "maximal"
    ]
    assert list(payload["config"]) == ["seed", "bound", "attempts", "generator"]


def test_verify_paper_passes(capsys):
    code, payload, _ = run_json(capsys, "verify-paper")
    assert code == 0
    assert payload["all_passed"] is True
    assert len(payload["entries"]) == 4
    for entry in payload["entries"]:
        assert entry["passed"] is True
        assert list(entry["checks"][0]) == ["name", "passed", "expected", "actual"]


def test_random_trials_small(capsys):
    code, payload, _ = run_json(
        capsys,
        "random-trials",
        "--count", "3",
        "--seed", "5",
        "--max-degree", "5",
        "--max-generators", "4",
    )
    assert code == 0
    assert payload["summary"]["count"] == 3
    assert payload["summary"]["all_wlp"] is True
    assert payload["summary"]["all_consistent"] is True
    assert list(payload["config"].items()) == [
        ("count", 3),
        ("seed", 5),
        ("bound", 100),
        ("attempts", 5),
        ("min_degree", 2),
        ("max_degree", 5),
        ("min_generators", 3),
        ("max_generators", 4),
        ("generator", "splitmix64"),
    ]


def test_fraction_coefficients_serialize_exactly(capsys):
    ideal = (
        '{"variables": 3, "powers": ['
        '{"form": ["1/2", 0, 0], "power": 2},'
        '{"form": [0, 1, 0], "power": 2},'
        '{"form": [0, 0, 1], "power": 2},'
        '{"form": [1, 1, 1], "power": 2}]}'
    )
    code, payload, _ = run_json(capsys, "hilbert", ideal)
    assert code == 0
    assert payload["hilbert"] == [1, 3, 2]


def test_cli_reproducibility(capsys):
    first = run_json(capsys, "wlp", "corpus:four-general-cubes", "--seed", "3")
    second = run_json(capsys, "wlp", "corpus:four-general-cubes", "--seed", "3")
    assert first == second


def test_human_table_headers(capsys):
    _, out, _ = run(capsys, "wlp", SQUARES)
    assert "power  degree  source  target  rank  maximal" in out
    _, out, _ = run(capsys, "predict", SQUARES)
    assert "degree  source  target  rank  kernel  cokernel  maximal" in out


def _modules_after(code: str) -> set[str]:
    done = _python("-c", code + "\nimport sys; print(' '.join(sys.modules))", capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _modules_after_cli(*argv: str) -> set[str]:
    return _modules_after(
        "import contextlib, io\n"
        "from wlpcheck import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


def test_each_command_loads_only_what_it_uses():
    # importing the package loads no submodule: exports resolve on first use
    assert not {m for m in _modules_after("import wlpcheck") if m.startswith("wlpcheck.")}
    # every piece of a corpus ideal is below linalg.NUMPY_CELLS, so a call on
    # one never pays for numpy; no record pays for dataclasses
    never = {"numpy", "dataclasses", "wlpcheck.splitting", "wlpcheck.binary",
             "wlpcheck.trials", "wlpcheck.verify"}
    loaded = _modules_after_cli("hilbert", "corpus:four-general-cubes", "--json")
    assert not loaded & (never | {"wlpcheck.lefschetz"})
    loaded = _modules_after_cli("wlp", "corpus:four-general-cubes", "--json")
    assert "wlpcheck.lefschetz" in loaded
    assert not loaded & never


def test_closed_stdout_keeps_the_exit_code():
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE every time
    for argv, code, buffered in (
        (["hilbert", SQUARES], 0, True),
        (["wlp", "corpus:four-variable-cubes", "--json"], 1, False),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _python(
                "-m", "wlpcheck.cli", *argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={"PYTHONUNBUFFERED": None if buffered else "1"},
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, ""), argv


# The fixed point: stdout of the seeded sweep and of verify-paper, byte for
# byte.  Regenerate a digest with
#   PYTHONPATH=src python -m wlpcheck.cli random-trials --json --count 100 | sha256sum
#   PYTHONPATH=src python -m wlpcheck.cli verify-paper --json | sha256sum
# A change that moves a digest changes reported behaviour and must say why.
FIXED_POINT = {
    ("random-trials", "--json", "--count", "100"):
        "be592461cdc0d412ed166cfd2f7b33c641d18024dffd8cd19e70a06bcd372062",
    ("verify-paper", "--json"):
        "dfa9e59d33e2b14e574fd3549bf64ab9b352da8fb5ab5ec8c968b6defc3ae80b",
}


def test_fixed_point_outputs_are_unchanged(capsys):
    for argv, digest in FIXED_POINT.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
