"""Per-layer tracing of wlpcheck from outside the package.

Each traced entry point is replaced by a wrapper that records a span: the
layer it belongs to, its start and end, the span that caused it, the op it
ran for, and a few counts taken at the boundary.  Module-level functions are
rebound under every name that any ``wlpcheck`` module holds for them (for
example ``rank_mod_prime`` lives in ``linalg`` and is imported into both
``quotient`` and ``lefschetz``); methods are replaced on their class.  An
entry point that no longer exists is reported as absent, never an error.

Spans stay in memory; the caller writes them out when the run ends.  A
span's self time is its duration minus the time of its child spans,
counting the tracer's own bookkeeping for a child as the child's.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import process_time as clock  # CPU seconds, as the ops are timed


def _snapshot_basis(args):
    rows = list(args[1])  # may be a generator: materialise it once, before timing
    before = {id(r) for r in args[0].rows}
    return (args[0], rows), before


def _exact_counts(args, result, before):
    basis, rows = args
    fresh = [r for r in basis.rows if id(r) not in before]
    bits = max((abs(x).bit_length() for r in fresh for x in r), default=0)
    return {"rows": len(rows), "ncols": basis.ncols, "gained": result, "bits": bits}


def _modp_counts(args, result, _state):
    return {"rows": len(args[0]), "ncols": args[1]}


def _rows_built(args, result, _state):
    return {"built": len(result)}


def _attempts(args, result, _state):
    return {"attempts": result.attempts_used}


# layer -> entry points as (module, attribute path, pre-hook, post-hook).
# A pre-hook may rewrite the arguments before the clock starts; a post-hook
# turns (arguments, result, pre-hook state) into the span's counts after it
# stops.
ENTRY_POINTS = {
    "linalg.exact": [("wlpcheck.linalg", "IntRowBasis.extend", _snapshot_basis, _exact_counts)],
    "linalg.modp": [("wlpcheck.linalg", "rank_mod_prime", None, _modp_counts)],
    "quotient.rows": [
        ("wlpcheck.quotient", "shifted_rows", None, _rows_built),
        ("wlpcheck.quotient", "QuotientAlgebra.spanning_rows", None, None),
    ],
    "quotient.piece": [("wlpcheck.quotient", "QuotientAlgebra.piece", None, None)],
    "quotient.hilbert": [("wlpcheck.quotient", "QuotientAlgebra.hilbert_function", None, None)],
    "lefschetz.rank": [("wlpcheck.lefschetz", "multiplication_rank", None, None)],
    "lefschetz.check": [
        ("wlpcheck.lefschetz", "wlp_check", None, _attempts),
        ("wlpcheck.lefschetz", "slp_check", None, _attempts),
    ],
    "splitting.predict": [
        ("wlpcheck.splitting", "predict_wlp", None, None),
        ("wlpcheck.splitting", "predicted_splitting_type", None, None),
    ],
    "splitting.split": [
        ("wlpcheck.splitting", "generic_splitting_type", None, None),
        ("wlpcheck.splitting", "splitting_type_at", None, None),
    ],
    "binary": [
        ("wlpcheck.binary", name, None, None)
        for name in (
            "minimal_power_degrees", "power_ideal_dim", "power_quotient_dim",
            "binary_power_resolution", "syzygy_shifts_from_hilbert", "power_syzygy_shifts",
        )
    ],
    "poly": [
        ("wlpcheck.poly", name, None, None)
        for name in ("expand_power", "multiply", "restrict_linear_form", "restrict_mod_linear")
    ],
    "trials": [
        ("wlpcheck.trials", name, None, None)
        for name in ("run_random_trials", "run_trial", "random_power_ideal")
    ],
    "specfile": [
        ("wlpcheck.specfile", name, None, None)
        for name in (
            "load_ideal_argument", "load_ideal_file", "load_corpus_entry", "corpus_names", "parse_ideal",
        )
    ],
    "cli": [("wlpcheck.cli", "main", None, None)],
}

# span fields
ID, PARENT, OP, LAYER, T0, T1, CHILD_S, COUNTS = range(8)


def rebind(original, replacement) -> int:
    """Point every ``wlpcheck`` module-level name bound to ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "wlpcheck" or name.startswith("wlpcheck.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[list] = []
        self._undo: list = []

    def install(self) -> None:
        for layer, entries in ENTRY_POINTS.items():
            for module_name, path, pre, post in entries:
                try:
                    owner = importlib.import_module(module_name)
                    *outer, name = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, name)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(layer, original, pre, post)
                if isinstance(owner, type):
                    setattr(owner, name, wrapper)
                    self._undo.append(lambda o=owner, n=name, f=original: setattr(o, n, f))
                else:
                    rebind(original, wrapper)
                    self._undo.append(lambda w=wrapper, f=original: rebind(w, f))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            state = None
            if pre is not None:
                args, state = pre(args)
            parent = stack[-1] if stack else None
            span = [len(spans), parent[ID] if parent else -1, self.op, layer, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = clock()
                stack.pop()
            if post is not None:
                span[COUNTS] = post(args, result, state)
            if parent is not None:
                parent[CHILD_S] += clock() - t_in
            return result

        return wrapper


def _outermost_s(spans, by_id, layer):
    """Wall time inside ``layer``, not double-counting its nested spans."""
    total = 0.0
    for s in spans:
        if s[LAYER] != layer:
            continue
        parent = by_id.get((s[OP], s[PARENT]))
        if parent is None or parent[LAYER] != layer:
            total += s[T1] - s[T0]
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one run's spans.

    Spans from several processes may be mixed: ids are unique per op.
    """
    by_id = {(s[OP], s[ID]): s for s in spans}
    child_layers: dict[tuple, set] = {}
    for s in spans:
        child_layers.setdefault((s[OP], s[PARENT]), set()).add(s[LAYER])

    def of(layer):
        return [s for s in spans if s[LAYER] == layer]

    def self_s(layer):
        return sum(s[T1] - s[T0] - s[CHILD_S] for s in of(layer))

    def total(layer, key):
        return sum((s[COUNTS] or {}).get(key, 0) for s in of(layer))

    def children(s):
        return child_layers.get((s[OP], s[ID]), set())

    exact = of("linalg.exact")
    modp = of("linalg.modp")
    pieces = of("quotient.piece")
    builds = [s for s in pieces if children(s)]
    questions = builds + of("lefschetz.rank")
    rows_in = total("linalg.exact", "rows")
    return {
        "linalg.exact.self_s": self_s("linalg.exact"),
        "linalg.exact.calls": len(exact),
        "linalg.exact.rows_in": rows_in,
        "linalg.exact.cells": sum(s[COUNTS]["rows"] * s[COUNTS]["ncols"] for s in exact if s[COUNTS]),
        "linalg.exact.useful_frac": total("linalg.exact", "gained") / rows_in if rows_in else 0.0,
        "linalg.exact.max_bits": max((s[COUNTS]["bits"] for s in exact if s[COUNTS]), default=0),
        "linalg.modp.self_s": self_s("linalg.modp"),
        "linalg.modp.calls": len(modp),
        "linalg.modp.cells": sum(s[COUNTS]["rows"] * s[COUNTS]["ncols"] for s in modp if s[COUNTS]),
        "linalg.modp.certified_frac": (
            sum(1 for s in questions if "linalg.exact" not in children(s)) / len(questions)
            if questions else 0.0
        ),
        "quotient.rows.self_s": self_s("quotient.rows"),
        "quotient.rows.rows_built": total("quotient.rows", "built"),
        "quotient.piece.calls": len(pieces),
        "quotient.piece.hit_frac": (len(pieces) - len(builds)) / len(pieces) if pieces else 0.0,
        "quotient.hilbert.s": _outermost_s(spans, by_id, "quotient.hilbert"),
        "lefschetz.rank.s": _outermost_s(spans, by_id, "lefschetz.rank"),
        "lefschetz.rank.self_s": self_s("lefschetz.rank"),
        "lefschetz.rank.calls": len(of("lefschetz.rank")),
        "lefschetz.check.s": _outermost_s(spans, by_id, "lefschetz.check"),
        "lefschetz.check.attempts": total("lefschetz.check", "attempts"),
        "splitting.predict.s": _outermost_s(spans, by_id, "splitting.predict"),
        "splitting.split.s": _outermost_s(spans, by_id, "splitting.split"),
        "binary.s": _outermost_s(spans, by_id, "binary"),
        "poly.self_s": self_s("poly"),
        "trials.self_s": self_s("trials"),
        "specfile.s": _outermost_s(spans, by_id, "specfile"),
        "cli.self_s": self_s("cli"),
    }


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer, for naming the layer that dominates a workload."""
    out: dict[str, float] = {}
    for s in spans:
        out[s[LAYER]] = out.get(s[LAYER], 0.0) + s[T1] - s[T0] - s[CHILD_S]
    return out

