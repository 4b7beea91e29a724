"""Self-test of the benchmark on a tiny configuration.

    python3 perfbench/selftest.py

Checks that every run prints every named metric with its unit and meets the
output contract, that a wrong rank injected into each workload is counted as
a failed op, and that the tracer rebinds every alias of an entry point and
reports a missing one as absent.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import child
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 2  # its first trials and ops are cheap on every workload
PRINTED_METRICS = ("ops_per_s", "op_p50_s", "op_p90_s", "setup_s", "peak_rss_mb", "fail_frac")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def check_output_contract() -> None:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            expect(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(last)}")
            expect(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
                   f"{workload} trace {trace}: {last['attempted']} attempted, {last['failed']} failed")
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            expect(list(last["metrics"]) == [m["name"] for m in wanted], f"{workload} metric names")
            for m in wanted:
                got = last["metrics"][m["name"]]
                expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                       f"{workload} {m['name']}: {got}")
            if not trace:
                table = {line.split()[0]: line.split()[1:] for line in lines[1:-1] if line.startswith("  ")}
                for name in PRINTED_METRICS:
                    expect(name in table and len(table[name]) >= 2, f"{workload}: {name} not printed with a unit")
            print(f"ok contract {workload} trace {trace}")


def loop_args(workload: str, ops: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=SEED, ops=ops, seconds=None, traced=False, spans=None)


def check_wrong_rank_fails() -> None:
    from wlpcheck import lefschetz

    original = lefschetz.multiplication_rank
    injections = {
        # one short: the direct route then disagrees with the predicted one
        "sweep3": lambda alg, g, m: max(original(alg, g, m) - 1, 0),
        # one more than the source piece can carry
        "fourvar": lambda alg, g, m: alg.dimension(m) + 1,
    }
    for workload, wrong in injections.items():
        expect(child.run_loop(loop_args(workload, 1), ROOT)["failed"] == 0, f"{workload} fails without injection")
        tracer.rebind(original, wrong)
        try:
            result = child.run_loop(loop_args(workload, 1), ROOT)
        finally:
            tracer.rebind(wrong, original)
        expect(result["failed"] == 1, f"{workload}: injected wrong rank passed")
        print(f"ok wrong rank counted as failed: {workload} ({result['failures'][0]})")

    # cli-corpus: the rank in the CLI's own output is changed on its way back
    real_run = subprocess.run

    def tampered(*args, **kwargs):
        proc = real_run(*args, **kwargs)
        out = json.loads(proc.stdout)
        if out.get("records"):
            out["records"][0]["rank"] += 1
        proc.stdout = json.dumps(out)
        return proc

    cycle = workloads.cli_cycle(workloads.load_corpus(ROOT))
    ops = next(i for i, (command, _) in enumerate(cycle) if command == "wlp") + 1
    child.subprocess.run = tampered
    try:
        result = child.run_loop(loop_args("cli-corpus", ops), ROOT)
    finally:
        child.subprocess.run = real_run
    expect(result["failed"] == 1, f"cli-corpus: {result['failed']} of {ops} ops failed, want 1")
    print(f"ok wrong rank counted as failed: cli-corpus ({result['failures'][0]})")


def check_tracer_rebinding() -> None:
    from wlpcheck import lefschetz, linalg, quotient

    original = linalg.rank_mod_prime
    missing = ("wlpcheck.linalg", "rank_removed_by_a_refactor", None, None)
    tracer.ENTRY_POINTS["linalg.modp"].append(missing)
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = linalg.rank_mod_prime
        expect(wrapped is not original, "rank_mod_prime was not wrapped")
        expect(quotient.rank_mod_prime is wrapped and lefschetz.rank_mod_prime is wrapped,
               "an alias of rank_mod_prime was missed")
        expect(t.absent == ["wlpcheck.linalg.rank_removed_by_a_refactor"], f"absent: {t.absent}")
        from wlpcheck import specfile

        quotient.QuotientAlgebra(specfile.load_corpus_entry("three-squares").ideal).hilbert_function()
        layers = {s[tracer.LAYER] for s in t.spans}
        expect({"quotient.hilbert", "quotient.piece", "linalg.modp"} <= layers, f"spans seen: {layers}")
    finally:
        t.uninstall()
        tracer.ENTRY_POINTS["linalg.modp"].remove(missing)
    expect(quotient.rank_mod_prime is original and lefschetz.rank_mod_prime is original,
           "uninstall left a wrapper behind")
    print("ok tracer rebinds every alias and reports absent entry points")


def main() -> None:
    child.import_library(ROOT)
    check_tracer_rebinding()
    check_wrong_rank_fails()
    check_output_contract()
    print("selftest passed")


if __name__ == "__main__":
    main()
