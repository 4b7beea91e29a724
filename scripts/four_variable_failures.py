#!/usr/bin/env python3
"""Weak Lefschetz failures for powers of linear forms in four variables.

Three variables are special: there every Artinian quotient by powers of
linear forms, general or not, has the maximal-rank property.  One dimension
up it already breaks for general forms.  This script draws tuples of
general cubes (or any power) in four variables and reports every degree
where multiplication by a general linear form drops rank.

Usage:
    python3 scripts/four_variable_failures.py --trials 10 --power 3 --generators 5
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from wlpcheck import cli
from wlpcheck.trials import TrialConfig, wlp_trial


def run(config: TrialConfig) -> dict:
    rows = []
    for index in range(config.count):
        ideal, report = wlp_trial(index, config)
        rows.append(
            {
                "index": index,
                "degrees": list(ideal.generator_degrees),
                "hilbert": list(report.hilbert),
                "wlp": report.holds,
                "witness": list(report.form.coeffs),
                "attempts_used": report.attempts_used,
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


def command(parser: argparse.ArgumentParser, args) -> int:
    try:
        config = cli.trial_config(
            args,
            count=args.trials,
            num_vars=4,
            min_degree=args.power,
            max_degree=args.power,
            min_generators=args.generators,
            max_generators=args.generators,
        )
    except ValueError as exc:
        parser.error(str(exc))
    outcome = run(config)
    summary = outcome["summary"]
    lines = [
        f"{args.generators} general forms to the power {args.power} "
        f"in four variables, {summary['total']} trials",
        f"weak Lefschetz true:  {summary['wlp_true']}",
        f"weak Lefschetz FALSE: {summary['wlp_false']}",
    ]
    for row in outcome["trials"]:
        if row["failures"]:
            spots = ", ".join(
                f"degree {f['degree']} ({f['source']}->{f['target']} rank {f['rank']})"
                for f in row["failures"]
            )
            lines.append(f"  trial {row['index']}: fails at {spots}")
    cli.emit(args, outcome, lines)
    return cli.EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10)
    cli.add_sampling_flags(parser)
    parser.add_argument("--power", type=int, default=3)
    parser.add_argument("--generators", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=partial(command, parser))
    return cli.run(parser, argv)


if __name__ == "__main__":
    sys.exit(main())
