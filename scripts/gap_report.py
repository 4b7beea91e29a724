#!/usr/bin/env python3
"""Splitting gap versus the weak Lefschetz property, case by case.

Prints one line per ideal: generator degrees, splitting shifts on a general
line, the gap between the extreme shifts, and the direct maximal-rank
verdict.  A gap of at most one always comes with the property; the bundled
quintics-with-monomials example shows a gap of two alongside a genuine
failure.  The table mixes the built-in reference examples with seeded
random power ideals, including one with a deliberately redundant high power
(a tail summand in the splitting).

Usage:
    python3 scripts/gap_report.py --random 8 --seed 20100601
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from wlpcheck import CheckConfig, GenericityError, GradedIdeal, generic_splitting_type, linear_form, wlp_check
from wlpcheck.cli import EXIT_GENERICITY
from wlpcheck.lefschetz import distinct_forms
from wlpcheck.rng import stream
from wlpcheck.specfile import load_corpus_entry


def named_cases() -> list[tuple[str, GradedIdeal]]:
    cases = [
        ("three-squares", load_corpus_entry("three-squares").ideal),
        ("four-general-cubes", load_corpus_entry("four-general-cubes").ideal),
        (
            "mixed-quintics-and-monomials",
            load_corpus_entry("mixed-quintics-and-monomials").ideal,
        ),
        (
            "three-cubes-plus-ninth-power",
            GradedIdeal.from_powers(
                [
                    (linear_form([1, 0, 0]), 3),
                    (linear_form([0, 1, 0]), 3),
                    (linear_form([0, 0, 1]), 3),
                    (linear_form([1, 1, 1]), 9),
                ]
            ),
        ),
    ]
    return cases


def random_cases(count: int, max_degree: int, config: CheckConfig) -> list[tuple[str, GradedIdeal]]:
    cases = []
    for index in range(count):
        rng = stream(config.seed, 1000 + index)
        size = 3 + rng.integer(0, 2)
        degrees = [rng.integer(2, max_degree) for _ in range(size)]
        for _ in range(64):
            forms = list(islice(distinct_forms(rng, 3, config.bound), size))
            ideal = GradedIdeal.from_powers(zip(forms, degrees))
            if ideal.algebra.is_artinian():
                cases.append((f"random-{index}", ideal))
                break
    return cases


def run(count: int, max_degree: int, config: CheckConfig) -> list[dict]:
    rows = []
    for name, ideal in named_cases() + random_cases(count, max_degree, config):
        stype, _ = generic_splitting_type(ideal, config)
        report = wlp_check(ideal, config)
        rows.append(
            {
                "name": name,
                "degrees": list(ideal.generator_degrees),
                "shifts": list(stype.shifts),
                "gap": stype.gap,
                "balanced": stype.balanced,
                "wlp": report.holds,
                "failures": [list(f) for f in report.failures],
            }
        )
    return rows


def main() -> None:
    defaults = CheckConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random", type=int, default=8)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--bound", type=int, default=defaults.bound)
    parser.add_argument("--attempts", type=int, default=defaults.attempts)
    parser.add_argument("--max-degree", type=int, default=7)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    try:
        config = CheckConfig(seed=args.seed, bound=args.bound, attempts=args.attempts)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        rows = run(args.random, args.max_degree, config)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_GENERICITY)

    if args.json:
        print(json.dumps(rows, indent=2))
        return

    width = max(len(r["name"]) for r in rows)
    print(f"{'ideal':<{width}}  degrees              shifts               gap  balanced  wlp")
    for r in rows:
        degrees = ",".join(str(d) for d in r["degrees"])
        shifts = ",".join(str(b) for b in r["shifts"])
        note = "" if r["wlp"] else f"  fails at {r['failures']}"
        print(
            f"{r['name']:<{width}}  ({degrees:<18})  ({shifts:<18})  {r['gap']:3d}  "
            f"{str(r['balanced']).lower():8s}  {str(r['wlp']).lower()}{note}"
        )


if __name__ == "__main__":
    main()
