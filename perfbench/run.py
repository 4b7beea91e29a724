"""wlpcheck benchmark: run one workload and print every metric with its unit.

    python3 perfbench/run.py --workload fourvar --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; the checkout is the
parent of this file's directory).  The workload runs in a child process as a
closed loop with one client, with the BLAS thread variables set to 1.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
CPU seconds of the processes doing the work (see child.cpu_seconds); the
wall-clock equivalents are printed beside them.  Set-up is measured by
spawning fresh interpreters that import wlpcheck and load the corpus; the
median of several is reported.

``--trace 1`` is the traced run.  An untraced child runs for half the time,
then a traced child runs exactly the same ops; the per-layer metrics come
from the traced child's spans, and ``trace.overhead_frac`` is the traced
child's loop CPU time over the untraced one's, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json.  Each run is also written, with its
environment, to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # before the workload child, and as many again after it
DEADLINE_S = 170
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run child.py; return its CPU seconds at "ready" and its JSON result."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), *extra],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT, start_new_session=True,
    )
    killer = threading.Timer(max(deadline - began, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        first = proc.stdout.readline().split()
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        proc.wait()
        proc.stdout.close()
    if first[:1] != ["ready"] or proc.returncode != 0:
        raise RunError(f"child {' '.join(extra)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return float(first[1]), json.loads(lines[-1]) if lines else None


def environment(workload: str, seed: int, child: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": child["python"],
        "numpy": child["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "blas_threads": 1,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    # probes on both sides of the loop, so the median does not rest on one moment's machine speed
    setups = [spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    ready, child = spawn(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)], deadline
    )
    setups.append(ready)
    setups += [spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    lat = child["latencies_s"]
    n = len(lat)
    metrics = {
        "ops_per_s": n / child["elapsed_s"],
        "op_p50_s": statistics.median(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    info = {
        "ops": n,
        "op_p90_s": statistics.quantiles(lat, n=10)[-1] if n >= 100 else None,
        "fail_frac": child["failed"] / n,
        "wall_ops_per_s": n / child["wall_elapsed_s"],
        "wall_op_p50_s": statistics.median(child["wall_latencies_s"]),
        "setup_samples_s": setups,
    }
    return metrics, info, child


def traced(args, deadline: float) -> tuple[dict, dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    _, plain = spawn(base + ["--seconds", str(args.seconds / 2)], deadline)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    _, child = spawn(base + ["--ops", str(plain["attempted"]), "--traced", "--spans", str(spans)], deadline)
    metrics = dict(child["layers"])
    metrics["trace.overhead_frac"] = child["elapsed_s"] / plain["elapsed_s"] - 1
    info = {
        "ops": child["attempted"],
        "self_s_by_layer": child["self_s_by_layer"],
        "absent": child["absent"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    for key in ("attempted", "failed"):
        child[key] += plain[key]
    child["failures"] = plain["failures"] + child["failures"]
    return metrics, info, child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "wlpcheck" / "__init__.py").is_file():
        print(f"no wlpcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, info, child = (traced if args.trace else end_to_end)(args, deadline)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    env = environment(args.workload, args.seed, child)
    units = {m["name"]: m["unit"] for m in wanted}
    report = {name: {"value": metrics[name], "unit": units[name]} for name in units}

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}  "
          f"closed loop, 1 client  ops {info['ops']}  failed {child['failed']}")
    for name, m in report.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        for name in sorted(metrics.keys() - report.keys()):
            print(f"  {name:28s} {metrics[name]:.6g} {tracer.unit(name)}  (not in BENCHMARK.json)")
        top = ", ".join(f"{k} {v:.3f}" for k, v in list(info["self_s_by_layer"].items())[:6])
        print(f"  self time by layer (s): {top}")
        print(f"  absent entry points: {info['absent'] or 'none'}")
    else:
        p90 = info["op_p90_s"]
        print(f"  {'op_p90_s':28s} " + (f"{p90:.6g} s" if p90 is not None else f"n/a (needs 100 ops, have {info['ops']})"))
        print(f"  {'fail_frac':28s} {info['fail_frac']:.6g} ratio ({child['failed']}/{info['ops']})")
        print(f"  {'op samples':28s} {info['ops']} count; setup samples {len(info['setup_samples_s'])}")
        print(f"  {'wall clock (not gated)':28s} ops_per_s {info['wall_ops_per_s']:.6g} 1/s, "
              f"op_p50_s {info['wall_op_p50_s']:.6g} s")
    for reason in child["failures"]:
        print(f"  FAILED {reason}")
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "metrics": report, "info": info, "outcomes": child["outcomes"],
              "attempted": child["attempted"], "failed": child["failed"], "failures": child["failures"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
