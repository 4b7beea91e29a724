"""Mutation checks for the Tier-1 suite: every mutant must fail a test.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant, then the unmutated run
    python tests/mutants.py NAME ...   # only the named mutants

A mutant is a textual edit of one library function.  For each, one child
``pytest -x`` runs the tests that mutant targets, with a plugin that, at
``pytest_configure``, compiles the edited source of the function and binds
it in place of the original under every name a loaded module holds for it.
No file is edited.  The runner prints the test that caught each mutant and
exits 1 if a mutant survives, if the unmutated run of every target fails,
or if a mutant's text is no longer in the source it edits.

The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    what: str
    module: str
    function: str  # a module-level name, or Class.method
    edits: tuple[tuple[str, str], ...]  # (old, new) pairs, each old found once
    targets: tuple[str, ...]  # pytest arguments, relative to the repository root


LINALG = "tests/test_linalg.py"
QUOTIENT = "tests/test_quotient.py"
COORDINATES = QUOTIENT + "::test_the_coordinates_are_the_picked_forms_then_unit_vectors_off_their_pivots"

MUTANTS = {
    "unscaled-inverse": Mutant(
        "drop the common pivot of the reduced rows, read by the inverse of the normalized coordinates",
        "wlpcheck.linalg", "IntRowBasis.reduced",
        (("[common // row[p] * x for x in row]", "row"),),
        (COORDINATES,),
    ),
    "negated-substitution-row": Mutant(
        "negate the first row of the substitution into normalized coordinates",
        "wlpcheck.quotient", "QuotientAlgebra.__init__",
        (("[(k, x) for k, x", "[(k, -x if row[0] else x) for k, x"),),
        (COORDINATES,),
    ),
    "skipped-frame": Mutant(
        "skip the frame scaling of the normalized coordinates",
        "wlpcheck.quotient", "QuotientAlgebra.__init__",
        (("substitution = [[(k, b * factor[k]) for k, b in row] for row in substitution]", "pass"),),
        (COORDINATES,),
    ),
    "exact-rank-minus-one": Mutant(
        "lower every nonzero rank found by exact elimination by one",
        "wlpcheck.linalg", "exact_rank",
        (("return basis.rank", "return max(basis.rank - 1, 0)"),),
        (LINALG, QUOTIENT),
    ),
    "trusted-modular-rank": Mutant(
        "trust every modular rank, full or not",
        "wlpcheck.linalg", "exact_rank",
        (("rank_mod_prime(rows, ncols) == full", "True"), ("return full", "return rank_mod_prime(rows, ncols)")),
        (LINALG, QUOTIENT),
    ),
    "flipped-cokernel-weight": Mutant(
        "flip the sign of each cokernel coordinate's weight on its own column",
        "wlpcheck.linalg", "IntRowBasis.cokernel",
        (("[(c, common)]", "[(c, -common)]"),),
        (LINALG, QUOTIENT),
    ),
    "dropped-image-weight": Mutant(
        "build each row with the weight of every image pair taken as 1",
        "wlpcheck.quotient", "shifted_rows",
        (("row[k] += c * w", "row[k] += c"),),
        (QUOTIENT,),
    ),
    "negated-stripped-row": Mutant(
        "negate a row under reduction when its content is stripped",
        "wlpcheck.linalg", "IntRowBasis.reduce",
        (("v = [x // g for x in v]", "v = [-x // g for x in v]"),),
        (LINALG, QUOTIENT),
    ),
    "piece-off-by-one": Mutant(
        "add 1 to every degree-3 piece",
        "wlpcheck.quotient", "QuotientAlgebra.piece",
        (("self._dimension(m)", "self._dimension(m) + (m == 3)"),),
        (QUOTIENT + "::test_restriction_has_the_hilbert_function_of_the_ideal_plus_the_line",),
    ),
    "stale-shift-codes": Mutant(
        "reuse the shift monomials' own codes even where the weights depend on the degree",
        "wlpcheck.quotient", "QuotientAlgebra._rows",
        (("shifts.codes if shifts.weights == weights else _codes(shifts.exponents, weights)", "shifts.codes"),),
        (QUOTIENT + "::test_non_power_non_artinian_reports_partial_dims",),
    ),
    "late-abandon": Mutant(
        "abandon a losing form only past as many misses as the best form has",
        "wlpcheck.lefschetz", "_rank_records",
        (("misses == len(first)", "misses == len(first) + 1"),),
        ("tests/test_lefschetz.py::test_four_cubes_slp_fails_only_at_cube_of_witness",),
    ),
    "dropped-denominators": Mutant(
        "clear rationals to integers by keeping only their numerators",
        "wlpcheck.poly", "_cleared",
        (("x.numerator * (mult // x.denominator)", "x.numerator"),),
        ("tests/test_poly.py::test_coeffs_frozen_cases",),
    ),
    "bool-coefficient": Mutant(
        "read a bool coefficient as the integer 1 or 0",
        "wlpcheck.poly", "_exact",
        (("if isinstance(value, bool):", "if False:"),),
        ("tests/test_specfile.py",),
    ),
    "predicted-rank-plus-one": Mutant(
        "add 1 to every rank predicted from the splitting type",
        "wlpcheck.splitting", "predict_wlp",
        (("hf[m + 1], rank, kernel", "hf[m + 1], rank + 1, kernel"),),
        ("tests/test_splitting.py::test_prediction_for_squares",),
    ),
}


def mutate(mutant: Mutant) -> None:
    """Bind the edited function in place of the original."""
    module = importlib.import_module(mutant.module)
    owner_name, _, name = mutant.function.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = vars(owner)[name]
    source = textwrap.dedent(inspect.getsource(original))
    for old, new in mutant.edits:
        if source.count(old) != 1:
            raise LookupError(f"{mutant.function} no longer contains {old!r} exactly once")
        source = source.replace(old, new)
    code = compile(source, f"<mutant of {mutant.function}>", "exec", __future__.annotations.compiler_flag, True)
    namespace: dict = {}
    exec(code, vars(module), namespace)
    mutated = namespace[name]
    setattr(owner, name, mutated)
    for loaded in list(sys.modules.values()):
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, mutated)


class Plugin:
    """Applies one mutant (or none) at configure time and notes the first
    test that fails."""

    def __init__(self, mutant: Mutant | None):
        self.mutant = mutant
        self.caught: str | None = None

    def pytest_configure(self, config):
        from hypothesis import Phase, settings

        # a failing example is not shrunk, and none is kept for a later run
        settings.register_profile("mutants", database=None, phases=[Phase.explicit, Phase.generate])
        settings.load_profile("mutants")
        if self.mutant is not None:
            mutate(self.mutant)

    def pytest_runtest_logreport(self, report):
        if report.failed and self.caught is None:
            self.caught = report.nodeid


def child(name: str) -> int:
    """Run one mutant's targets under ``pytest -x``; the name "" runs every
    target unmutated.  The last line printed names the failing test."""
    import pytest

    mutant = MUTANTS.get(name)
    # unmutated, the whole file of every target runs
    files = sorted({target.split("::")[0] for m in MUTANTS.values() for target in m.targets})
    targets = mutant.targets if mutant else files
    plugin = Plugin(mutant)
    code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=1", *targets], plugins=[plugin])
    print(f"\nfailed: {plugin.caught or '-'}")
    return int(code)


def run(name: str) -> tuple[int, str, float]:
    """Start one child; returns its exit code, the test it names and its wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys, mutants; sys.exit(mutants.child(sys.argv[1]))", name],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    failed = lines[-1].removeprefix("failed: ") if lines and lines[-1].startswith("failed: ") else "-"
    if done.returncode not in (0, 1):  # not a plain pass or test failure: show why
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
    return done.returncode, failed, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    bad = 0
    for name in names or list(MUTANTS):
        code, failed, seconds = run(name)
        caught = code == 1 and failed != "-"
        bad += not caught
        verdict = f"caught by {failed}" if caught else f"NOT CAUGHT (pytest exit {code})"
        print(f"{name:26s} {verdict}  [{seconds:.1f} s]  ({MUTANTS[name].what})", flush=True)
    if not names:
        code, failed, seconds = run("")
        bad += code != 0
        print(f"{'unmutated':26s} {'passed' if code == 0 else f'FAILED at {failed} (exit {code})'}  [{seconds:.1f} s]")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
