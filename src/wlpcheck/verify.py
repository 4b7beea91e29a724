"""Re-check the bundled reference examples against their stored expectations.

Every corpus entry carries an ``expect`` block of precomputed values:
Hilbert function, verdicts, exact rank tables, splitting data.  This module
recomputes each value with the live code and reports value-by-value
comparisons, so a regression anywhere in the stack surfaces as a named
mismatch rather than a silent drift.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import CheckConfig
from .lefschetz import multiplication_rank, slp_check, wlp_check
from .specfile import CorpusEntry, corpus_names, load_corpus_entry, parse_polynomial
from .splitting import generic_splitting_type, predict_wlp


class CheckOutcome(NamedTuple):
    name: str
    passed: bool
    expected: object
    actual: object


class EntryVerification(NamedTuple):
    entry_name: str
    outcomes: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


def _listify(value):
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


def verify_entry(entry: CorpusEntry, config: CheckConfig | None = None) -> EntryVerification:
    config = config or CheckConfig()
    expect = entry.expect
    ideal = entry.ideal
    outcomes: list[CheckOutcome] = []

    def record(name: str, expected, actual):
        outcomes.append(CheckOutcome(name, _listify(expected) == _listify(actual), expected, actual))

    alg = ideal.algebra
    if "hilbert" in expect:
        record("hilbert", expect["hilbert"], alg.hilbert_function())
    if "socle_degree" in expect:
        record("socle_degree", expect["socle_degree"], alg.socle_degree())

    wlp_report = None
    if "wlp" in expect:
        wlp_report = wlp_check(ideal, config)
        record("wlp", expect["wlp"], wlp_report.holds)
        if "wlp_failures" in expect:
            record("wlp_failures", expect["wlp_failures"],
                   [m for _, m in wlp_report.failures])
        if "wlp_rank_table" in expect:
            record("wlp_rank_table", expect["wlp_rank_table"],
                   [[r.degree, r.source_dim, r.target_dim, r.rank] for r in wlp_report.records])

    if "slp" in expect:
        slp_report = slp_check(ideal, config)
        record("slp", expect["slp"], slp_report.holds)
        if "slp_failures" in expect:
            record("slp_failures", expect["slp_failures"],
                   [[k, m] for k, m in slp_report.failures])

    if "splitting_shifts" in expect:
        stype, _ = generic_splitting_type(ideal, config)
        record("splitting_shifts", expect["splitting_shifts"], stype.shifts)
        if "restricted_socle" in expect:
            record("restricted_socle", expect["restricted_socle"], stype.restricted_socle)
        record("shift_sum", sum(ideal.generator_degrees), sum(stype.shifts))

    if expect.get("prediction_agrees") and wlp_report is not None:
        prediction = predict_wlp(ideal, wlp_report.form)
        direct = [[r.degree, r.rank] for r in wlp_report.records]
        predicted = [[r.degree, r.rank] for r in prediction.records]
        agree = direct == predicted and prediction.holds == wlp_report.holds
        record("prediction_agrees", expect["prediction_agrees"], agree)

    if "general_multiplier" in expect:
        g = parse_polynomial(
            expect["general_multiplier"], ideal.num_vars, f"corpus:{entry.name}.general_multiplier"
        )
        m = expect.get("general_multiplier_source_degree", 0)
        record(
            "general_multiplier_rank",
            expect["general_multiplier_rank"],
            multiplication_rank(alg, g, m),
        )

    return EntryVerification(entry.name, tuple(outcomes))


def verify_all(config: CheckConfig | None = None) -> tuple[EntryVerification, ...]:
    return tuple(
        verify_entry(load_corpus_entry(name), config) for name in corpus_names()
    )
