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
import sys
from functools import partial

from wlpcheck import GradedIdeal, cli, generic_splitting_type, linear_form, wlp_check
from wlpcheck.rng import CheckConfig, TrialConfig, stream
from wlpcheck.specfile import load_corpus_entry
from wlpcheck.trials import random_power_ideal


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
    sampling = TrialConfig(bound=config.bound, num_vars=3, min_degree=2, max_degree=max_degree,
                           min_generators=3, max_generators=5)
    return [(f"random-{i}", random_power_ideal(stream(config.seed, 1000 + i), sampling)) for i in range(count)]


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


def command(parser: argparse.ArgumentParser, args) -> int:
    try:
        config = cli.sampling_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.max_degree < 2:
        parser.error("max degree must be at least 2")
    rows = run(args.random, args.max_degree, config)

    width = max(len(r["name"]) for r in rows)
    lines = [f"{'ideal':<{width}}  degrees              shifts               gap  balanced  wlp"]
    for r in rows:
        degrees = ",".join(str(d) for d in r["degrees"])
        shifts = ",".join(str(b) for b in r["shifts"])
        note = "" if r["wlp"] else f"  fails at {r['failures']}"
        lines.append(
            f"{r['name']:<{width}}  ({degrees:<18})  ({shifts:<18})  {r['gap']:3d}  "
            f"{str(r['balanced']).lower():8s}  {str(r['wlp']).lower()}{note}"
        )
    cli.emit(args, rows, lines)
    return cli.EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random", type=int, default=8)
    cli.add_sampling_flags(parser)
    parser.add_argument("--max-degree", type=int, default=7)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=partial(command, parser))
    return cli.run(parser, argv)


if __name__ == "__main__":
    sys.exit(main())
