"""Command line behaviour: exit codes, JSON payloads, human output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_a_thousand_variables_are_not_artinian_not_a_crash():
    # one linear generator in 1000 variables: the scan stops after degree
    # 1 with exit 3, where enumerating monomials once recursed per variable
    n = 1000
    ideal = {"variables": n, "polynomials": [{"degree": 1, "terms": {" ".join("1" + "0" * (n - 1)): 1}}]}
    done = _python("-m", "wlpcheck.cli", "hilbert", json.dumps(ideal), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.endswith("\ndimensions so far: 1 999 ...\n")
    assert "Traceback" not in done.stderr
    # one linear power in 1000 variables: its form picks one coordinate and
    # 999 unit vectors complete it, so the coordinate rows stay sparse
    ideal = {"variables": n, "powers": [{"form": [1] * n, "power": 1}]}
    done = _python("-m", "wlpcheck.cli", "hilbert", json.dumps(ideal), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (3, "")
    assert "do not span" in done.stderr
    assert "Traceback" not in done.stderr


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


def test_bound_beyond_one_draw_is_two(capsys):
    # one 64-bit draw covers the 2B + 1 coefficients of [-B, B] up to B = 2^63 - 1
    for argv in (("wlp", SQUARES), ("split", SQUARES), ("random-trials", "--count", "1")):
        code, out, err = run(capsys, *argv, "--bound", str(2**63))
        assert (code, out) == (2, "")
        assert err.startswith("input error: bound must be at most"), argv


def test_wrong_variable_count_for_split_is_two(capsys):
    binary = '{"variables": 2, "powers": [{"form": [1, 0], "power": 2}, {"form": [0, 1], "power": 2}, {"form": [1, 1], "power": 2}]}'
    code, _, err = run(capsys, "split", binary)
    assert code == 2
    assert "three variables" in err


NONZERO = st.integers(-3, 3).filter(bool)
COEFFICIENTS = st.one_of(NONZERO, st.builds("{}/{}".format, NONZERO, st.integers(1, 3)))
# what a malformed description puts where a value belongs
JUNK = st.sampled_from([True, False, 1.5, None, "x", "1/0", [], {}, -1, 0, [1, 0, 0]])


@st.composite
def descriptions(draw):
    """Small well-formed ideal descriptions; some are not Artinian."""
    n = draw(st.integers(1, 3))
    data = {"variables": n, "powers": [], "polynomials": []}
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 4))
        if draw(st.booleans()):
            form = draw(st.lists(COEFFICIENTS, min_size=n, max_size=n))
            data["powers"].append({"form": form, "power": degree})
        else:
            cuts = st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1).map(sorted)
            keys = draw(st.lists(cuts, min_size=1, max_size=3).map(
                lambda all_cuts: {
                    " ".join(str(b - a) for a, b in zip([0, *c], [*c, degree])) for c in all_cuts
                }
            ))
            terms = {key: draw(COEFFICIENTS) for key in sorted(keys)}
            data["polynomials"].append({"degree": degree, "terms": terms})
    return data


def _containers(node):
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@st.composite
def malformed_descriptions(draw):
    """A well-formed description with one fault: a zero form, a bad exponent
    key, a dropped key, or a value of the wrong kind."""
    data = draw(descriptions())
    fault = draw(st.sampled_from(["zero form", "bad key", "drop", "junk"]))
    if fault == "zero form" and data["powers"]:
        draw(st.sampled_from(data["powers"]))["form"] = [0] * data["variables"]
    elif fault == "bad key" and data["polynomials"]:
        terms = draw(st.sampled_from(data["polynomials"]))["terms"]
        terms[draw(st.sampled_from(["x", "1 x", "", "-1 5", "9 9 9 9"]))] = 1
    else:
        target = draw(st.sampled_from([c for c in _containers(data) if c]))
        spot = draw(st.sampled_from(sorted(target) if isinstance(target, dict) else range(len(target))))
        if fault == "drop" and isinstance(target, dict):
            del target[spot]
        else:
            target[spot] = draw(JUNK)
    return data


# the stderr prefix of each exit code; 0 and 1 (a verdict) print nothing there
STDERR_PREFIX = {0: "", 1: "", 2: "input error: ", 3: "not Artinian: ", 4: "genericity failure: "}


def _assert_exit_contract(argv, codes):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in codes
    assert err.getvalue().startswith(STDERR_PREFIX[code])
    assert bool(err.getvalue()) == (code > 1)
    return code, err.getvalue()


def _assert_file_contract(path):
    """``hilbert`` on a file path: exit 0, 2 or 3, and any input error names the path."""
    code, err = _assert_exit_contract(["hilbert", str(path)], {0, 2, 3})
    assert code != 2 or str(path) in err
    return code


@settings(max_examples=200, deadline=None)
@given(st.one_of(descriptions(), malformed_descriptions()))
def test_hilbert_exit_codes_on_generated_descriptions(data):
    _assert_exit_contract(["hilbert", json.dumps(data)], {0, 2, 3})


@settings(max_examples=100, deadline=None)
@given(st.one_of(descriptions(), malformed_descriptions()).map(lambda d: json.dumps(d).encode()) | st.binary())
def test_hilbert_exit_codes_on_generated_files(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ideal.json"
        path.write_bytes(content)
        _assert_file_contract(path)


def test_hilbert_exit_codes_on_paths_that_hold_no_description(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_bytes(b"")
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff{}")
    long_integer = tmp_path / "digits.json"
    long_integer.write_text("9" * 5000, encoding="ascii")
    for path in (empty, undecodable, long_integer, tmp_path, tmp_path / "missing.json"):
        assert _assert_file_contract(path) == 2, path


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["wlp", "slp", "split", "predict"]), st.one_of(descriptions(), malformed_descriptions()))
def test_sampling_exit_codes_on_generated_descriptions(command, data):
    _assert_exit_contract([command, json.dumps(data), "--attempts", "3", "--bound", "3"], {0, 1, 2, 3, 4})


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
    # one never pays for numpy; no record pays for dataclasses; every draw
    # and sampling knob lives in rng, so there is no config module to load
    never = {"numpy", "dataclasses", "wlpcheck.config", "wlpcheck.trials", "wlpcheck.verify"}
    predicted = {"wlpcheck.splitting", "wlpcheck.binary"}
    loaded = _modules_after_cli("hilbert", "corpus:four-general-cubes", "--json")
    assert not loaded & (never | predicted | {"wlpcheck.lefschetz"})
    loaded = _modules_after_cli("wlp", "corpus:four-general-cubes", "--json")
    assert "wlpcheck.lefschetz" in loaded
    assert not loaded & (never | predicted)
    # the predicted route stays independent of the direct one
    for command in ("split", "predict"):
        loaded = _modules_after_cli(command, "corpus:four-general-cubes", "--json")
        assert predicted <= loaded
        assert not loaded & (never | {"wlpcheck.lefschetz"}), command


def test_closed_stdout_keeps_the_exit_code():
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE every time
    for argv, code, buffered in (
        (["hilbert", SQUARES], 0, True),
        (["wlp", "corpus:four-variable-cubes", "--json"], 1, False),
        (["--help"], 0, True),
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


# The fixed point: exit code and stdout of the seeded sweep, of verify-paper,
# of hilbert, wlp and slp on every corpus entry and of split and predict on
# two of them, byte for byte.  Regenerate
# a digest with, for example,
#   PYTHONPATH=src python -m wlpcheck.cli random-trials --json --count 100 | sha256sum
#   PYTHONPATH=src python -m wlpcheck.cli predict corpus:four-general-cubes --json | sha256sum
# A change that moves a digest changes reported behaviour and must say why.
FIXED_POINT = {
    ("random-trials", "--json", "--count", "100"):
        (0, "be592461cdc0d412ed166cfd2f7b33c641d18024dffd8cd19e70a06bcd372062"),
    ("verify-paper", "--json"):
        (0, "dfa9e59d33e2b14e574fd3549bf64ab9b352da8fb5ab5ec8c968b6defc3ae80b"),
    # the only corpus entry whose polynomial generators are restricted
    ("split", QUINTICS, "--json"):
        (0, "d895548c24c90c225ff22da8314d9f1dbaa7060365f69271a7d3e15c80c39ec0"),
    ("predict", QUINTICS, "--json"):
        (1, "12abfa3c17cc753dc44fb53a8e3bb90e9c71eba4844854a32457ba0a04d24423"),
    ("split", "corpus:four-general-cubes", "--json"):
        (0, "b689ced3641915f92ecb9ae08e8b3abc85d933e57b1897030e27cf8660265007"),
    ("predict", "corpus:four-general-cubes", "--json"):
        (0, "eb3f7c0221eb8d541762714584fe00aac173dc9bb6e28f70e9817261dd6b86d1"),
    ("hilbert", SQUARES, "--json"):
        (0, "70549c66b14cf747003820883e8e7d417c3d9d4c1253b5e67e239c818d2868c2"),
    ("hilbert", "corpus:four-general-cubes", "--json"):
        (0, "78969aaf6cc3f87fe2a3444db4ffa0cbd0214a6611de3483a4438d93858a5730"),
    ("hilbert", "corpus:four-variable-cubes", "--json"):
        (0, "cac692a59ad778e441885d206b3c0d8d28bbc2ae947f017173b33588d6012fb1"),
    ("hilbert", QUINTICS, "--json"):
        (0, "2e693a8a3ed162699279cb8284fd081d17463a20350e1df95701d2c7dd8a624c"),
    ("wlp", SQUARES, "--json"):
        (0, "95d4e47776c896df1cc2e0a3cd0ed51880dcbb2bf00b630bcf4785c553c4bbb7"),
    ("wlp", "corpus:four-general-cubes", "--json"):
        (0, "a684e6eda56e068b39e0ef7697c1243909657c2869852e7fb9a33626d6e33135"),
    ("wlp", "corpus:four-variable-cubes", "--json"):
        (1, "81d79fce8c69106b0b7bc4edeba7162706b4b59cfe137a27baf05a4d0c73ea87"),
    ("wlp", QUINTICS, "--json"):
        (1, "064a1ed25644a77b1d572305f5db6fdd036610aec15be470566f0c386f5bb042"),
    ("slp", SQUARES, "--json"):
        (0, "60bd78fb121abdcced7082761f67f261c4e6354fe98e35b32ebabc86a8dd54ea"),
    ("slp", "corpus:four-general-cubes", "--json"):
        (1, "64c7a31b3488ab86d40abef693b235ef46cc7e2e75324a882eb63c2ccbc3e828"),
    ("slp", "corpus:four-variable-cubes", "--json"):
        (1, "cdd9fb38caae526f2c02f9190eb3b9f5c34b9fe8c0d1120366c1dd49b236b373"),
    ("slp", QUINTICS, "--json"):
        (1, "d92a8cf54dcd81ff666e8671bccfb19f29609c286c4873f196beb9ac4c64c26e"),
}


def test_fixed_point_outputs_are_unchanged(capsys):
    for argv, (exit_code, digest) in FIXED_POINT.items():
        code, out, _ = run(capsys, *argv)
        assert code == exit_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_split_reads_the_least_restricted_hilbert_function(capsys):
    # at this seed the first two sampled lines are special and agree on
    # [3, 4, 5]; the later, general ones restrict to a smaller algebra
    code, payload, _ = run_json(capsys, "split", "corpus:four-general-cubes", "--seed", "1062785886")
    assert code == 0
    assert payload["splitting"]["shifts"] == [4, 4, 4]
