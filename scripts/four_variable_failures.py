#!/usr/bin/env python3
"""Weak Lefschetz failures for powers of linear forms in four variables.

Three variables are special: there the maximal-rank property always holds
for ideals of powers of general linear forms.  One dimension up it already
breaks.  This script draws tuples of general cubes (or any power) in four
variables and reports every degree where multiplication by a general linear
form drops rank.

Usage:
    python3 scripts/four_variable_failures.py --trials 10 --power 3 --generators 5
"""

from __future__ import annotations

import argparse
import json
import sys

from wlpcheck import GenericityError, wlp_check
from wlpcheck.cli import EXIT_GENERICITY
from wlpcheck.rng import stream
from wlpcheck.trials import TrialConfig, random_power_ideal


def run(config: TrialConfig) -> dict:
    rows = []
    for index in range(config.count):
        # Multiplier sampling must not replay the draws that built the ideal:
        # a multiplier equal to a generator form has a forced kernel.
        rng = stream(config.seed, index)
        ideal = random_power_ideal(rng, config)
        report = wlp_check(ideal, config.check_config(seed=rng.next_uint64()))
        rows.append(
            {
                "index": index,
                "degrees": list(ideal.generator_degrees),
                "hilbert": list(report.hilbert),
                "wlp": report.holds,
                "failures": [
                    {
                        "degree": r.degree,
                        "source": r.source_dim,
                        "target": r.target_dim,
                        "rank": r.rank,
                    }
                    for r in report.records
                    if not r.maximal
                ],
            }
        )
    return {
        "config": {
            "trials": config.count,
            "seed": config.seed,
            "bound": config.bound,
            "attempts": config.attempts,
            "power": config.min_degree,
            "generators": config.min_generators,
            "num_vars": config.num_vars,
        },
        "trials": rows,
        "summary": {
            "total": len(rows),
            "wlp_true": sum(1 for r in rows if r["wlp"]),
            "wlp_false": sum(1 for r in rows if not r["wlp"]),
        },
    }


def main() -> None:
    defaults = TrialConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--bound", type=int, default=defaults.bound)
    parser.add_argument("--attempts", type=int, default=defaults.attempts)
    parser.add_argument("--power", type=int, default=3)
    parser.add_argument("--generators", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    try:
        config = TrialConfig(
            count=args.trials,
            seed=args.seed,
            bound=args.bound,
            attempts=args.attempts,
            num_vars=4,
            min_degree=args.power,
            max_degree=args.power,
            min_generators=args.generators,
            max_generators=args.generators,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        outcome = run(config)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_GENERICITY)

    if args.json:
        print(json.dumps(outcome, indent=2))
        return

    summary = outcome["summary"]
    print(
        f"{args.generators} general forms to the power {args.power} "
        f"in four variables, {summary['total']} trials"
    )
    print(f"weak Lefschetz true:  {summary['wlp_true']}")
    print(f"weak Lefschetz FALSE: {summary['wlp_false']}")
    for row in outcome["trials"]:
        if row["failures"]:
            spots = ", ".join(
                f"degree {f['degree']} ({f['source']}->{f['target']} rank {f['rank']})"
                for f in row["failures"]
            )
            print(f"  trial {row['index']}: fails at {spots}")


if __name__ == "__main__":
    main()
