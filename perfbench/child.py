"""The process that runs one workload; started by run.py, never by hand.

Modes:

* ``--setup-only``: import wlpcheck and load the corpus, say "ready" with
  the CPU seconds the process has used so far, exit.  run.py takes set-up
  time from this line.
* ``--workload W``: set up, say "ready", run ops 0, 1, ... of W as a closed
  loop until ``--seconds`` have passed or ``--ops`` ops are done, then print
  one JSON line.  ``--traced`` installs the tracer right after the import,
  so the corpus load is traced too, and writes the spans to ``--spans`` at
  the end.
* ``--cli-op I -- ARGV``: run ``wlpcheck.cli.main(ARGV)`` under the tracer
  as op I and print its exit code, its output and the spans as JSON.  This
  is the traced form of one cli-corpus op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
import resource
from time import perf_counter, process_time

import tracer
import workloads


def import_library(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import wlpcheck

    where = Path(wlpcheck.__file__).resolve().parent
    if where != (root / "src" / "wlpcheck").resolve():
        raise SystemExit(f"imported wlpcheck from {where}, not from this checkout")


def cli_op(root: Path, index: int, argv: list[str]) -> None:
    import_library(root)
    t = tracer.Tracer()
    t.install()
    t.op = index
    from wlpcheck import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    print(json.dumps({"returncode": code, "stdout": out.getvalue(), "spans": t.spans}))


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for.

    Ops are timed in CPU seconds, not wall seconds: the library is
    single-threaded, so on an idle machine the two agree, and CPU time leaves
    out the time a shared host steals from this machine's virtual CPUs.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_loop(args, root: Path, t: tracer.Tracer | None = None) -> dict:
    corpus = workloads.load_corpus(root)
    cycle = workloads.cli_cycle(corpus)
    op = workloads.IN_PROCESS.get(args.workload)
    spans: list = t.spans if t else []
    latencies, wall_latencies, failures, outcomes = [], [], [], {}
    rss_mb = None
    start, start_cpu = perf_counter(), cpu_seconds()
    i = 0
    while (args.ops is None or i < args.ops) and (
        args.seconds is None or perf_counter() - start < args.seconds
    ):
        if t:
            t.op = i
        began, began_cpu = perf_counter(), cpu_seconds()
        try:
            if op is not None:
                reason, outcome = op(args.seed, i)
            else:
                reason, outcome = cli_run(root, args, i, cycle, corpus, spans)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            reason, outcome = f"op {i}: {type(exc).__name__}: {exc}", "error"
        latencies.append(cpu_seconds() - began_cpu)
        wall_latencies.append(perf_counter() - began)
        if reason:
            failures.append(reason)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        i += 1
        if op is not None and i == workloads.RSS_AFTER_OPS:
            rss_mb = peak_rss_mb()
    elapsed, elapsed_cpu = perf_counter() - start, cpu_seconds() - start_cpu
    import numpy

    result = {
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:20],
        "elapsed_s": elapsed_cpu,
        "latencies_s": latencies,
        "wall_elapsed_s": elapsed,
        "wall_latencies_s": wall_latencies,
        "outcomes": outcomes,
        "peak_rss_mb": peak_rss_mb() if rss_mb is None else rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if t:
        result["layers"] = tracer.layer_metrics(spans)
        by_layer = tracer.self_time_by_layer(spans)
        # interpreter start, import and loop glue: the op time no span covers
        by_layer["(outside spans)"] = sum(latencies) - sum(
            s[tracer.T1] - s[tracer.T0] for s in spans if s[tracer.PARENT] == -1 and s[tracer.OP] >= 0
        )
        result["self_s_by_layer"] = dict(sorted(by_layer.items(), key=lambda kv: -kv[1]))
        result["absent"] = sorted(set(t.absent))
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "op", "layer", "t0", "t1", "child_s", "counts"],
                       "spans": spans}, handle)
    return result


def cli_run(root: Path, args, i: int, cycle, corpus, spans: list) -> tuple[str | None, str]:
    argv = workloads.cli_argv(args.seed, i, cycle)
    if args.traced:
        cmd = [sys.executable, __file__, "--root", str(root), "--cli-op", str(i), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "wlpcheck.cli", *argv]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=root, env=env)
    returncode, stdout = proc.returncode, proc.stdout
    if args.traced:
        traced = json.loads(proc.stdout)
        returncode, stdout = traced["returncode"], traced["stdout"]
        spans.extend(traced["spans"])
    return workloads.cli_gate(argv, corpus, returncode, stdout), argv[0]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--cli-op", type=int)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    root = args.root.resolve()
    if args.cli_op is not None:
        cli_op(root, args.cli_op, args.argv)
        return
    import_library(root)
    t = None
    if args.traced:
        t = tracer.Tracer()
        t.install()  # before the corpus load, so set-up's specfile work is traced too, as op -1
        t.op = -1
    from wlpcheck import specfile

    for name in specfile.corpus_names():
        specfile.load_corpus_entry(name)
    print(f"ready {process_time()!r}", flush=True)
    if args.setup_only:
        return
    print(json.dumps(run_loop(args, root, t)), flush=True)


if __name__ == "__main__":
    main()
