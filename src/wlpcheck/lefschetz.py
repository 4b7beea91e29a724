"""Maximal-rank checks for multiplication by powers of a linear form.

Every rank comes from :func:`wlpcheck.quotient.multiplication_rank`, which
reads it off two Hilbert-function values:

    rank(x g : A_m -> A_{m + deg g}) = h_A(m + deg g) - dim (R/(I + (g)))_{m + deg g}.

For g = l^k the last generator of I + (g) is the power (l, k), never
expanded in the original coordinates.  This module keeps only the policy:
which candidate forms are tried, which (power, degree) positions are
ranked, and which form is reported.  One loop holds it: each candidate's
table is ranked in an inner loop, which breaks off once the form can no
longer beat the best before it.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import GenericityError
from .poly import LinearForm
from .quotient import GradedIdeal, multiplication_rank
from .rng import MAX_SAMPLE_TRIES, CheckConfig, witness_forms


class MapRankRecord(NamedTuple):
    """Rank of multiplication by the power-th power, one source degree."""

    power: int
    degree: int
    source_dim: int
    target_dim: int
    rank: int

    @property
    def maximal(self) -> bool:
        return self.rank == min(self.source_dim, self.target_dim)


class LefschetzReport(NamedTuple):
    kind: str  # "wlp" or "slp"
    holds: bool
    form: LinearForm
    attempts_used: int
    hilbert: tuple[int, ...]
    records: tuple[MapRankRecord, ...]

    @property
    def failures(self) -> tuple[tuple[int, int], ...]:
        """(power, degree) pairs where the witness form missed maximal rank."""
        return tuple((r.power, r.degree) for r in self.records if not r.maximal)

    @property
    def socle_degree(self) -> int:
        return len(self.hilbert) - 1


def _best_of_attempts(ideal: GradedIdeal, config: CheckConfig, kind: str) -> LefschetzReport:
    """Try up to config.attempts distinct forms; keep the best showing.

    "wlp" checks only multiplication by the form itself; "slp" checks every
    power up to the socle degree for the same form, which is the all-powers
    property.  The first form with no miss is the witness.  Otherwise the
    report is the form with the fewest misses, the earliest on a tie.

    Each form's table is ranked in one inner loop.  Once the best form so
    far has b misses, a later form is ranked first where that one missed,
    in (power, degree) order, and the loop breaks as soon as b of its ranks
    miss: the form can neither hold nor have fewer misses.  Every miss
    counted is an exact rank.  A form whose loop runs out has its whole
    table ranked, on the same algebras of I + (l^k), one per power, and has
    fewer misses than the best before it.
    """
    alg = ideal.algebra
    hf = alg.hilbert_function()
    top = len(hf) - 1
    powers = top if kind == "slp" else 1
    positions = [(k, m) for k in range(1, powers + 1) for m in range(top - k + 1)]
    forms = witness_forms(config, ideal.num_vars)
    best: LefschetzReport | None = None
    # a stream that ends early has exhausted the coefficient pool: judge what we saw
    for tried, form in enumerate(islice(forms, config.attempts), 1):
        first = best.failures if best else ()
        ranked: dict[tuple[int, int], MapRankRecord] = {}
        misses = 0
        for k, m in [*first, *(p for p in positions if p not in first)]:
            record = ranked[k, m] = MapRankRecord(k, m, hf[m], hf[m + k], multiplication_rank(alg, (form, k), m))
            if not record.maximal:
                misses += 1
                if misses == len(first):
                    break
        else:
            best = LefschetzReport(kind, False, form, tried, hf, tuple(ranked[p] for p in positions))
            if not best.failures:
                return best._replace(holds=True)
    if best is None:
        raise GenericityError(
            f"could not sample a linear form within {MAX_SAMPLE_TRIES} tries (bound {config.bound})"
        )
    return best._replace(attempts_used=tried)


def wlp_check(ideal: GradedIdeal, config: CheckConfig | None = None) -> LefschetzReport:
    """Does multiplication by some linear form have maximal rank in every degree?

    Verdict True is a certificate (the witness form is returned).  Verdict
    False means every sampled candidate missed maximal rank somewhere; the
    report carries the best candidate's exact rank table.
    """
    return _best_of_attempts(ideal, config or CheckConfig(), "wlp")


def slp_check(ideal: GradedIdeal, config: CheckConfig | None = None) -> LefschetzReport:
    """Same, but every power of one witness form must have maximal rank."""
    return _best_of_attempts(ideal, config or CheckConfig(), "slp")
