"""The benchmark's workloads: how op i is generated from the workload seed,
and the gate that decides whether its output is correct.

Every workload is a closed loop with a single client: op i + 1 starts when
op i has finished.  An op's gate returns None when the output is right and
a one-line reason when it is not; a wrong op counts toward ``fail_frac``.

* ``sweep3`` — one acceptance-criterion-3 trial per op (three variables,
  both rank routes).  Exact elimination does most of the work and the cost
  is heavy-tailed.
* ``fourvar`` — five general quartics in four variables, then a WLP check.
  Large graded pieces are built here, and exact elimination dominates.
* ``cli-corpus`` — a fresh ``python -m wlpcheck.cli`` process per op over
  the bundled corpus.  Rank queries, the interpreter start and the import
  dominate.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path


def _wlpcheck():
    # imported late: the parent process and the cli-corpus loop never load the library
    from wlpcheck import lefschetz, rng, trials

    return lefschetz, rng, trials


# -- sweep3 ------------------------------------------------------------------


def sweep3_op(seed: int, i: int) -> tuple[str | None, str]:
    _, _, trials = _wlpcheck()
    result = trials.run_trial(i, trials.TrialConfig(seed=seed))
    return sweep3_gate(result), ",".join(map(str, result.degrees))


def sweep3_gate(result) -> str | None:
    if not result.consistent:
        return f"trial {result.index}: direct and predicted rank routes disagree"
    if not result.wlp_holds:
        return f"trial {result.index}: weak Lefschetz reported failing in three variables"
    return None


# -- fourvar -----------------------------------------------------------------

FOURVAR = {"num_vars": 4, "min_degree": 4, "max_degree": 4, "min_generators": 5, "max_generators": 5}


def stanley_hilbert(num_vars: int, degree: int, count: int) -> tuple[int, ...]:
    """Coefficients of (1 - t^degree)^count / (1 - t)^num_vars, cut off before
    the first non-positive one.  Stanley (1980) showed this is the Hilbert
    function of n + 1 general forms in n variables; it does not depend on the
    code under test."""
    out = []
    m = 0
    while True:
        h = sum(
            (-1) ** j * comb(count, j) * comb(m - j * degree + num_vars - 1, num_vars - 1)
            for j in range(count + 1)
            if m >= j * degree
        )
        if h <= 0:
            return tuple(out)
        out.append(h)
        m += 1


FOURVAR_HILBERT = stanley_hilbert(4, 4, 5)


def fourvar_op(seed: int, i: int) -> tuple[str | None, str]:
    lefschetz, rng, trials = _wlpcheck()
    draws = rng.stream(seed, i)
    config = trials.TrialConfig(**FOURVAR)
    ideal = trials.random_power_ideal(draws, config)
    report = lefschetz.wlp_check(ideal, config.check_config(seed=draws.next_uint64()))
    table = [(r.power, r.degree, r.source_dim, r.target_dim, r.rank) for r in report.records]
    return fourvar_gate(report), hashlib.sha256(repr(table).encode()).hexdigest()[:12]


def fourvar_gate(report) -> str | None:
    hf = tuple(report.hilbert)
    if hf != FOURVAR_HILBERT:
        return f"hilbert {hf} differs from Stanley's closed form {FOURVAR_HILBERT}"
    for r in report.records:
        if (r.source_dim, r.target_dim) != (hf[r.degree], hf[r.degree + r.power]):
            return f"record at degree {r.degree} has dimensions that do not match the Hilbert function"
        if not 0 <= r.rank <= min(r.source_dim, r.target_dim):
            return f"rank {r.rank} at degree {r.degree} exceeds min(source, target)"
    return None


# -- cli-corpus --------------------------------------------------------------


def load_corpus(root: Path) -> dict[str, dict]:
    """The corpus entries with their stored expectations, read as plain JSON."""
    folder = root / "src" / "wlpcheck" / "corpus"
    return {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(folder.glob("*.json"))}


def cli_cycle(corpus: dict[str, dict]) -> list[tuple[str, str | None]]:
    """(subcommand, entry) pairs in the order the ops cycle through them."""
    ops: list[tuple[str, str | None]] = []
    for name, data in corpus.items():
        ops += [("hilbert", name), ("wlp", name), ("slp", name)]
        if data["variables"] == 3:
            ops += [("split", name), ("predict", name)]
    ops.append(("verify-paper", None))
    return ops


# Coefficient bound for every sampled form.  ``generic_splitting_type``
# accepts the first two sampled lines whose splitting types agree.  At the
# default bound 100, on four-general-cubes, both of the first two lines are
# jumping lines with the same type for 11 of 3000 seeds (e.g. ``split
# corpus:four-general-cubes --seed 1062785886`` gives shifts 3 4 5, not
# 4 4 4), so about one cli-corpus run in twelve would get a wrong op.  A
# sample lands on a jumping line with probability O(1/B), so two of them do
# with probability O(1/B^2): at B = 10^4 this is ~4e-7 per op.  The gate is
# unchanged.
CLI_BOUND = 10_000


def cli_argv(seed: int, i: int, cycle) -> list[str]:
    command, entry = cycle[i % len(cycle)]
    argv = [command] + ([f"corpus:{entry}"] if entry else []) + ["--json"]
    if command != "hilbert":  # the only subcommand without sampling flags
        argv += ["--seed", str(random.Random(f"{seed}/{i}").randrange(2**31)), "--bound", str(CLI_BOUND)]
    return argv


def cli_gate(argv: list[str], corpus: dict[str, dict], returncode: int, stdout: str) -> str | None:
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{' '.join(argv)}: output is not JSON (exit {returncode})"
    command = argv[0]
    if command == "verify-paper":
        holds = out.get("all_passed")
        mismatches = [] if holds else ["all_passed"]
    else:
        expect = corpus[argv[1][len("corpus:"):]]["expect"]
        holds, mismatches = _cli_mismatches(command, expect, out)
    want_exit = 1 if holds is False else 0
    if returncode != want_exit:
        mismatches.append(f"exit {returncode} != {want_exit}")
    return f"{' '.join(argv[:2])}: " + ", ".join(mismatches) if mismatches else None


def _cli_mismatches(command: str, expect: dict, out: dict) -> tuple[bool | None, list[str]]:
    """The verdict the entry expects (None: no verdict) and the fields that differ."""
    got = {}
    want = {}
    if command in ("hilbert", "wlp", "slp", "predict"):
        got["hilbert"], want["hilbert"] = out.get("hilbert"), expect["hilbert"]
    holds = None
    if command in ("wlp", "predict"):
        holds = expect["wlp"]
        got["holds"], want["holds"] = out.get("holds"), holds
        failures = out.get("failures", [])
        got["failures"] = [f[1] for f in failures] if command == "wlp" else failures
        want["failures"] = expect["wlp_failures"]
        got["ranks"] = [[r["degree"], r["source_dim"], r["target_dim"], r["rank"]] for r in out.get("records", [])]
        want["ranks"] = expect["wlp_rank_table"]
    if command == "slp":
        # SLP includes the first power, so an entry without WLP has no SLP either
        holds = expect.get("slp", False if not expect["wlp"] else None)
        got["holds"], want["holds"] = out.get("holds"), holds
        if "slp_failures" in expect:
            got["failures"], want["failures"] = out.get("failures"), expect["slp_failures"]
    if command in ("split", "predict"):
        got["splitting.shifts"] = out.get("splitting", {}).get("shifts")
        want["splitting.shifts"] = expect["splitting_shifts"]
    if command == "split":
        got["restricted_socle"] = out.get("splitting", {}).get("restricted_socle")
        want["restricted_socle"] = expect["restricted_socle"]
    return holds, [k for k in want if got[k] != want[k]]


IN_PROCESS = {"sweep3": sweep3_op, "fourvar": fourvar_op}

# An in-process workload keeps every ideal it meets in the library's global
# ``algebra`` cache, so its peak RSS grows with the number of ops; it is read
# after this many ops, so a faster program is not charged for fitting more
# ops into the run.  A cli-corpus op is a fresh process and its peak does
# not grow, so it is read over the whole run.
RSS_AFTER_OPS = 8
NAMES = ("sweep3", "fourvar", "cli-corpus")
