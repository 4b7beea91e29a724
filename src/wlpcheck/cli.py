"""Command line front end.

Subcommands map one-to-one onto the library: hilbert, wlp, slp, split,
predict, verify-paper, random-trials.  Exit codes: 0 success (and verdict
true where there is one), 1 verdict false or a failed comparison, 2 bad
input, 3 quotient not Artinian, 4 sampling could not reach a generic
configuration.  If the reader of standard output goes away, the output
is dropped and the exit code is still the command's own.

Each subcommand imports the modules it needs when it runs, so a process
loads only those: ``hilbert`` never loads the Lefschetz checks, and no
check loads the splitting, sweep or verification code it does not use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .config import CheckConfig, TrialConfig
from .errors import GenericityError, NotArtinianError, SpecFormatError
from .rng import GENERATOR_NAME
from .specfile import load_ideal_argument, render_coefficient

if TYPE_CHECKING:
    from .lefschetz import LefschetzReport
    from .poly import LinearForm
    from .quotient import GradedIdeal
    from .splitting import SplittingType

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_FORMAT = 2
EXIT_NOT_ARTINIAN = 3
EXIT_GENERICITY = 4


def _form_json(form: LinearForm):
    return [render_coefficient(c) for c in form.coeffs]


def _config_json(config: CheckConfig) -> dict:
    return {**config._asdict(), "generator": GENERATOR_NAME}


def _emit(args, payload: dict, human_lines) -> None:
    try:
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in human_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: drop the output, keep the exit code, and point
        # stdout at the null device so the interpreter's last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _ideal_json(ideal: GradedIdeal) -> dict:
    return {"variables": ideal.num_vars, "generator_degrees": list(ideal.generator_degrees)}


def _ideal_summary(ideal: GradedIdeal) -> str:
    degrees = ", ".join(str(d) for d in ideal.generator_degrees)
    return f"{ideal.num_vars} variables, generator degrees ({degrees})"


def _check_config(args) -> CheckConfig:
    return CheckConfig(seed=args.seed, bound=args.bound, attempts=args.attempts)


def _report_lines(ideal: GradedIdeal, report: LefschetzReport, label: str):
    hf = " ".join(str(h) for h in report.hilbert)
    lines = [
        f"ideal: {_ideal_summary(ideal)}",
        f"hilbert function: {hf}  (socle degree {report.socle_degree})",
        f"witness: {report.form}  (after {report.attempts_used} attempt(s))",
        "power  degree  source  target  rank  maximal",
    ]
    for r in report.records:
        flag = "yes" if r.maximal else "NO"
        lines.append(
            f"{r.power:5d}  {r.degree:6d}  {r.source_dim:6d}  {r.target_dim:6d}  {r.rank:4d}  {flag}"
        )
    verdict = "holds" if report.holds else "fails for every sampled form"
    lines.append(f"verdict: {label} {verdict}")
    return lines


def _report_payload(ideal: GradedIdeal, report: LefschetzReport, config: CheckConfig) -> dict:
    return {
        "kind": report.kind,
        "ideal": _ideal_json(ideal),
        "holds": report.holds,
        "witness": _form_json(report.form),
        "attempts_used": report.attempts_used,
        "hilbert": list(report.hilbert),
        "socle_degree": report.socle_degree,
        "records": [{**r._asdict(), "maximal": r.maximal} for r in report.records],
        "failures": [[k, m] for k, m in report.failures],
        "config": _config_json(config),
    }


def _splitting_json(stype: SplittingType) -> dict:
    return {
        "shifts": list(stype.shifts),
        "restricted_socle": stype.restricted_socle,
        "low_count": stype.low_count,
        "high_count": stype.high_count,
        "tail": list(stype.tail),
        "gap": stype.gap,
        "balanced": stype.balanced,
    }


def cmd_hilbert(args) -> int:
    ideal = load_ideal_argument(args.ideal)
    hf = ideal.algebra.hilbert_function()
    payload = {
        "ideal": _ideal_json(ideal),
        "hilbert": list(hf),
        "socle_degree": len(hf) - 1,
    }
    hfs = " ".join(str(h) for h in hf)
    _emit(args, payload, [
        f"ideal: {_ideal_summary(ideal)}",
        f"hilbert function: {hfs}",
        f"socle degree: {len(hf) - 1}",
    ])
    return EXIT_OK


def cmd_lefschetz(args) -> int:
    from .lefschetz import slp_check, wlp_check

    ideal = load_ideal_argument(args.ideal)
    config = _check_config(args)
    report = (slp_check if args.command == "slp" else wlp_check)(ideal, config)
    _emit(args, _report_payload(ideal, report, config), _report_lines(ideal, report, args.label))
    return EXIT_OK if report.holds else EXIT_FALSE


def cmd_split(args) -> int:
    from .splitting import generic_splitting_type

    ideal = load_ideal_argument(args.ideal)
    config = _check_config(args)
    stype, witness = generic_splitting_type(ideal, config)
    payload = {
        "ideal": _ideal_json(ideal),
        "splitting": _splitting_json(stype),
        "witness": _form_json(witness),
        "config": _config_json(config),
    }
    shifts = ", ".join(str(b) for b in stype.shifts)
    _emit(args, payload, [
        f"ideal: {_ideal_summary(ideal)}",
        f"splitting shifts: ({shifts})   sum {sum(stype.shifts)}",
        f"restricted socle degree: {stype.restricted_socle}",
        f"counts: {stype.low_count} at socle+1, {stype.high_count} at socle+2, tail {list(stype.tail)}",
        f"gap: {stype.gap}  balanced: {'yes' if stype.balanced else 'no'}",
        f"witness: {witness}",
    ])
    return EXIT_OK


def cmd_predict(args) -> int:
    from .splitting import generic_splitting_type, predict_wlp

    ideal = load_ideal_argument(args.ideal)
    config = _check_config(args)
    stype, witness = generic_splitting_type(ideal, config)
    prediction = predict_wlp(ideal, witness)
    payload = {
        "ideal": _ideal_json(ideal),
        "holds": prediction.holds,
        "witness": _form_json(witness),
        "hilbert": list(prediction.hilbert),
        "splitting": _splitting_json(prediction.splitting),
        "records": [{**r._asdict(), "maximal": r.maximal} for r in prediction.records],
        "failures": list(prediction.failures),
        "config": _config_json(config),
    }
    lines = [
        f"ideal: {_ideal_summary(ideal)}",
        f"witness: {witness}",
        f"splitting shifts: {list(prediction.splitting.shifts)}  restricted socle {prediction.splitting.restricted_socle}",
        "degree  source  target  rank  kernel  cokernel  maximal",
    ]
    for r in prediction.records:
        flag = "yes" if r.maximal else "NO"
        lines.append(
            f"{r.degree:6d}  {r.source_dim:6d}  {r.target_dim:6d}  {r.rank:4d}  "
            f"{r.kernel_dim:6d}  {r.cokernel_dim:8d}  {flag}"
        )
    lines.append(
        "predicted verdict: weak Lefschetz property "
        + ("holds" if prediction.holds else f"fails at degrees {list(prediction.failures)}")
    )
    _emit(args, payload, lines)
    return EXIT_OK if prediction.holds else EXIT_FALSE


def cmd_verify(args) -> int:
    from .verify import verify_all

    config = _check_config(args)
    verifications = verify_all(config)
    payload = {
        "entries": [
            {
                "name": v.entry_name,
                "passed": v.passed,
                "checks": [o._asdict() for o in v.outcomes],
            }
            for v in verifications
        ],
        "all_passed": all(v.passed for v in verifications),
        "config": _config_json(config),
    }
    lines = []
    for v in verifications:
        status = "ok" if v.passed else "FAILED"
        lines.append(f"[{status}] {v.entry_name}: {len(v.outcomes)} checks")
        for o in v.outcomes:
            if not o.passed:
                lines.append(f"        {o.name}: expected {o.expected!r}, got {o.actual!r}")
    lines.append("all entries passed" if payload["all_passed"] else "some entries FAILED")
    _emit(args, payload, lines)
    return EXIT_OK if payload["all_passed"] else EXIT_FALSE


def cmd_random_trials(args) -> int:
    from .trials import run_random_trials

    config = TrialConfig(**{
        name: getattr(args, name) for name in TrialConfig._fields if name != "num_vars"
    })
    report = run_random_trials(config)
    payload = {
        "config": {
            **{k: v for k, v in config._asdict().items() if k != "num_vars"},
            "generator": GENERATOR_NAME,
        },
        "summary": {
            "count": len(report.results),
            "wlp_holds": report.num_wlp,
            "consistent": report.num_consistent,
            "all_wlp": report.all_wlp,
            "all_consistent": report.all_consistent,
        },
        "trials": [
            {
                "index": r.index,
                "degrees": list(r.degrees),
                "hilbert": list(r.hilbert),
                "wlp": r.wlp_holds,
                "predicted": r.predicted_holds,
                "ranks_agree": r.ranks_agree,
            }
            for r in report.results
        ],
    }
    lines = [
        f"{len(report.results)} random ideals "
        f"(degrees {config.min_degree}..{config.max_degree}, "
        f"{config.min_generators}..{config.max_generators} generators, seed {config.seed})",
        f"weak Lefschetz holds: {report.num_wlp}/{len(report.results)}",
        f"both routes agree:    {report.num_consistent}/{len(report.results)}",
    ]
    for r in report.results:
        if not r.consistent or not r.wlp_holds:
            lines.append(
                f"  trial {r.index}: degrees {r.degrees} wlp={r.wlp_holds} "
                f"predicted={r.predicted_holds} agree={r.ranks_agree}"
            )
    ok = report.all_consistent and report.all_wlp
    lines.append("sweep verdict: " + ("consistent" if ok else "INCONSISTENT OR FAILING"))
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FALSE


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    defaults = CheckConfig()
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help=f"sampling seed (default {defaults.seed})")
    parser.add_argument("--bound", type=int, default=defaults.bound,
                        help=f"coefficients are drawn from [-B, B] (default {defaults.bound})")
    parser.add_argument("--attempts", type=int, default=defaults.attempts,
                        help=f"distinct forms to try (default {defaults.attempts})")


# the subcommands that take an ideal: name, help, function, whether it takes
# the sampling flags, and extra defaults
_IDEAL_COMMANDS = (
    ("hilbert", "Hilbert function and socle degree", cmd_hilbert, False, {}),
    ("wlp", "weak Lefschetz check: multiplication by a linear form", cmd_lefschetz, True,
     {"label": "weak Lefschetz property"}),
    ("slp", "strong Lefschetz check: every power of one form", cmd_lefschetz, True,
     {"label": "strong Lefschetz property"}),
    ("split", "splitting type of the relation module on a generic line", cmd_split, True, {}),
    ("predict", "rank table predicted from splitting data alone", cmd_predict, True, {}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlpcheck",
        description="Exact maximal-rank checks for multiplication by linear forms "
                    "on Artinian quotients of polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ideal_help = "ideal description: a JSON file path, corpus:NAME, or an inline JSON object"

    for name, text, func, sampling, extra in _IDEAL_COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("ideal", help=ideal_help)
        p.add_argument("--json", action="store_true")
        if sampling:
            _add_sampling_flags(p)
        p.set_defaults(func=func, **extra)

    p = sub.add_parser("verify-paper", help="re-check the bundled reference examples")
    p.add_argument("--json", action="store_true")
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random-trials", help="random ideals of powers; compare both rank routes")
    trials = TrialConfig()  # the defaults
    p.add_argument("--json", action="store_true")
    p.add_argument("--count", type=int, default=trials.count,
                   help=f"number of ideals (default {trials.count})")
    _add_sampling_flags(p)
    p.add_argument("--min-degree", type=int, default=trials.min_degree,
                   help=f"smallest power (default {trials.min_degree})")
    p.add_argument("--max-degree", type=int, default=trials.max_degree,
                   help=f"largest power (default {trials.max_degree})")
    p.add_argument("--min-generators", type=int, default=trials.min_generators,
                   help=f"fewest generators (default {trials.min_generators})")
    p.add_argument("--max-generators", type=int, default=trials.max_generators,
                   help=f"most generators (default {trials.max_generators})")
    p.set_defaults(func=cmd_random_trials)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NotArtinianError as exc:
        print(f"not Artinian: {exc}", file=sys.stderr)
        if exc.partial_dims:
            dims = " ".join(str(d) for d in exc.partial_dims)
            print(f"dimensions so far: {dims} ...", file=sys.stderr)
        return EXIT_NOT_ARTINIAN
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
