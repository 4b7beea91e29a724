"""Maximal-rank checks for multiplication by powers of a linear form.

The rank of multiplication by g from the degree-m piece of A = R/I is never
computed from a matrix of the map.  The image of g times A_m is
(I + gR) / I in degree m + deg g, so

    rank(x g : A_m -> A_{m + deg g}) = h_A(m + deg g) - dim (R/(I + (g)))_{m + deg g},

and both dimensions are Hilbert-function values.  The quotient by I + (g)
is the algebra of the ideal I + (g), whose last generator is g.  For
g = l^k that generator is the power (l, k), so its normalized coordinates
pick l as a coordinate whenever k is among the smallest exponents, which
k = 1 always is: its pieces then live on standard monomials in one
variable fewer, and l^k is never expanded in the original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import GenericityError
from .poly import LinearForm
from .quotient import Generator, GradedIdeal, QuotientAlgebra
from .rng import SplitMix64

DEFAULT_SEED = 20100601
DEFAULT_BOUND = 100
DEFAULT_ATTEMPTS = 5
MAX_SAMPLE_TRIES = 256


@dataclass(frozen=True)
class CheckConfig:
    """Sampling knobs shared by every randomized check."""

    seed: int = DEFAULT_SEED
    bound: int = DEFAULT_BOUND
    attempts: int = DEFAULT_ATTEMPTS

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be positive")
        if self.attempts < 1:
            raise ValueError("need at least one attempt")


def distinct_forms(rng: SplitMix64, num_vars: int, bound: int) -> Iterator[LinearForm]:
    """Random integer linear forms with coefficients in [-bound, bound].

    Each form is nonzero and not proportional to any earlier one.  The
    stream ends once MAX_SAMPLE_TRIES draws in a row are rejected, which
    is how a small coefficient pool runs out.
    """
    seen: list[LinearForm] = []
    rejected = 0
    while rejected < MAX_SAMPLE_TRIES:
        form = LinearForm(tuple(rng.integer(-bound, bound) for _ in range(num_vars)))
        if form.is_zero or any(form.proportional_to(f) for f in seen):
            rejected += 1
            continue
        rejected = 0
        seen.append(form)
        yield form


@dataclass(frozen=True)
class MapRankRecord:
    """Rank of multiplication by the power-th power, one source degree."""

    power: int
    degree: int
    source_dim: int
    target_dim: int
    rank: int

    @property
    def maximal(self) -> bool:
        return self.rank == min(self.source_dim, self.target_dim)


@dataclass(frozen=True)
class LefschetzReport:
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


def multiplication_rank(alg: QuotientAlgebra, g: Generator, m: int) -> int:
    """Exact rank of multiplication by g out of the degree-m quotient piece.

    g is a polynomial or a power ``(form, k)`` of a linear form.  The image
    of g times the degree-m piece is (I + gR) / I in degree m + deg g, so
    the rank is the drop in dimension from A to the quotient by I + (g).
    """
    base, degree = g if isinstance(g, tuple) else (g, g.degree)
    if base.num_vars != alg.num_vars:
        raise ValueError("variable count does not match")
    if base.is_zero:
        return 0
    target = m + degree
    target_dim = alg.dimension(target)
    if alg.dimension(m) == 0 or target_dim == 0:
        return 0
    return target_dim - alg.adjoined(g).dimension(target)


def _rank_records(alg: QuotientAlgebra, form: LinearForm, powers: int) -> tuple[MapRankRecord, ...]:
    hf = alg.hilbert_function()
    top = len(hf) - 1
    records = []
    for k in range(1, powers + 1):
        for m in range(top - k + 1):
            rank = multiplication_rank(alg, (form, k), m)
            records.append(MapRankRecord(k, m, hf[m], hf[m + k], rank))
    return tuple(records)


def _best_of_attempts(ideal: GradedIdeal, config: CheckConfig, kind: str) -> LefschetzReport:
    """Try up to config.attempts distinct forms; keep the best showing.

    "wlp" checks only multiplication by the form itself; "slp" checks every
    power up to the socle degree for the same form, which is the all-powers
    property.
    """
    alg = ideal.algebra
    hf = alg.hilbert_function()
    powers = len(hf) - 1 if kind == "slp" else 1
    forms = distinct_forms(SplitMix64(config.seed), ideal.num_vars, config.bound)
    best: tuple[int, LinearForm, tuple[MapRankRecord, ...]] | None = None  # misses, form, records
    # a stream that ends early has exhausted the coefficient pool: judge what we saw
    for tried, form in enumerate(islice(forms, config.attempts), 1):
        records = _rank_records(alg, form, powers)
        misses = sum(1 for r in records if not r.maximal)
        if misses == 0:
            return LefschetzReport(kind, True, form, tried, hf, records)
        if best is None or misses < best[0]:
            best = (misses, form, records)
    if best is None:
        raise GenericityError(
            f"could not sample a linear form within {MAX_SAMPLE_TRIES} tries (bound {config.bound})"
        )
    return LefschetzReport(kind, False, best[1], tried, hf, best[2])


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
