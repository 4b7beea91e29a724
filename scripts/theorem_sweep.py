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
import sys
from collections import Counter
from functools import partial

from wlpcheck import cli, minimal_power_degrees, predicted_splitting_type, run_random_trials
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
            "wlp_true": report.num_wlp,
            "routes_agree": report.num_consistent,
            "gap_table": [
                {"gap": gap, "wlp": wlp, "count": count}
                for (gap, wlp), count in sorted(gap_counts.items())
            ],
        },
    }


def command(parser: argparse.ArgumentParser, args) -> int:
    try:
        config = cli.trial_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    outcome = run_sweep(config)
    summary = outcome["summary"]
    lines = [
        f"{summary['total']} random power ideals, seed {config.seed}",
        f"weak Lefschetz true: {summary['wlp_true']}/{summary['total']}",
        f"routes agree:        {summary['routes_agree']}/{summary['total']}",
        "",
        "gap  wlp    count",
    ]
    for row in summary["gap_table"]:
        lines.append(f"{row['gap']:3d}  {str(row['wlp']).lower():5s}  {row['count']:5d}")
    disagreements = [r for r in outcome["trials"] if not r["routes_agree"]]
    if disagreements:
        lines.append("\nDISAGREEMENTS:")
        for r in disagreements:
            lines.append(f"  trial {r['index']}: degrees {r['degrees']}")
    cli.emit(args, outcome, lines)
    return cli.EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_trial_flags(parser, "--trials")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=partial(command, parser))
    return cli.run(parser, argv)


if __name__ == "__main__":
    sys.exit(main())
