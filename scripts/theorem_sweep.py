#!/usr/bin/env python3
"""Random sweep over three-variable power ideals.

For each trial the script draws random degrees and general linear forms,
runs the direct maximal-rank check and the splitting-based prediction, and
records their agreement together with the splitting gap and whether the
balanced-splitting condition holds.  The summary tabulates (gap, verdict)
counts; by the main dimension identities the weak Lefschetz column should
read "true" on every line.

Usage:
    python3 scripts/theorem_sweep.py --trials 100 --seed 20100601
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from wlpcheck import GenericityError, minimal_power_degrees, predicted_splitting_type, run_random_trials
from wlpcheck.cli import EXIT_GENERICITY
from wlpcheck.trials import TrialConfig


def run_sweep(config: TrialConfig) -> dict:
    report = run_random_trials(config)
    rows = []
    gap_counts: Counter = Counter()
    for result in report.results:
        stype = predicted_splitting_type(result.degrees)
        balanced_condition = minimal_power_degrees(result.degrees) == tuple(
            sorted(result.degrees)
        )
        rows.append(
            {
                "index": result.index,
                "degrees": list(result.degrees),
                "shifts": list(stype.shifts),
                "gap": stype.gap,
                "balanced_condition": balanced_condition,
                "wlp": result.wlp_holds,
                "predicted": result.predicted_holds,
                "routes_agree": result.consistent,
            }
        )
        gap_counts[(stype.gap, result.wlp_holds)] += 1
    return {
        "config": {
            "trials": config.count,
            "seed": config.seed,
            "bound": config.bound,
            "attempts": config.attempts,
            "min_degree": config.min_degree,
            "max_degree": config.max_degree,
            "min_generators": config.min_generators,
            "max_generators": config.max_generators,
        },
        "trials": rows,
        "summary": {
            "total": len(rows),
            "wlp_true": sum(1 for r in rows if r["wlp"]),
            "routes_agree": sum(1 for r in rows if r["routes_agree"]),
            "gap_table": [
                {"gap": gap, "wlp": wlp, "count": count}
                for (gap, wlp), count in sorted(gap_counts.items())
            ],
        },
    }


def main() -> None:
    defaults = TrialConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=defaults.count)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--bound", type=int, default=defaults.bound)
    parser.add_argument("--attempts", type=int, default=defaults.attempts)
    parser.add_argument("--min-degree", type=int, default=defaults.min_degree)
    parser.add_argument("--max-degree", type=int, default=defaults.max_degree)
    parser.add_argument("--min-generators", type=int, default=defaults.min_generators)
    parser.add_argument("--max-generators", type=int, default=defaults.max_generators)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    try:
        config = TrialConfig(
            count=args.trials,
            seed=args.seed,
            bound=args.bound,
            attempts=args.attempts,
            min_degree=args.min_degree,
            max_degree=args.max_degree,
            min_generators=args.min_generators,
            max_generators=args.max_generators,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        outcome = run_sweep(config)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_GENERICITY)

    if args.json:
        print(json.dumps(outcome, indent=2))
        return

    summary = outcome["summary"]
    print(f"{summary['total']} random power ideals, seed {config.seed}")
    print(f"weak Lefschetz true: {summary['wlp_true']}/{summary['total']}")
    print(f"routes agree:        {summary['routes_agree']}/{summary['total']}")
    print()
    print("gap  wlp    count")
    for row in summary["gap_table"]:
        print(f"{row['gap']:3d}  {str(row['wlp']).lower():5s}  {row['count']:5d}")
    disagreements = [r for r in outcome["trials"] if not r["routes_agree"]]
    if disagreements:
        print("\nDISAGREEMENTS:")
        for r in disagreements:
            print(f"  trial {r['index']}: degrees {r['degrees']}")


if __name__ == "__main__":
    main()
