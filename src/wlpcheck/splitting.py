"""Splitting data of the relation module on a hyperplane, and rank predictions.

For a three-variable Artinian quotient, restricting the relation module of
the generators to the line cut out by a linear form gives a direct sum of
line-module twists; the multiset of twist degrees (the splitting type) plus
plain dimension counts predict the rank of multiplication by that form in
every degree.  The predictions here are closed-form arithmetic; the direct
route in :mod:`wlpcheck.lefschetz` computes the same ranks by elimination,
and the two are meant to be compared, never merged.

Degree counts used throughout, for generator degrees d_i and twist degrees
b_j (the shifts):

* ``restriction_h0(shifts, m)``  = sum_j max(m - b_j + 1, 0), the dimension
  of the degree-m piece of the restricted relation module;
* ``restriction_h1(shifts, m)``  = sum_j max(b_j - m - 1, 0), its obstruction
  count in degree m;
* ``syzygy_h2(degrees, m)``      = sum_i C(d_i - m - 1, 2), the corresponding
  obstruction count of the ambient relation sheaf.

Multiplication by the form from degree m to m + 1 then has

  cokernel dimension = restriction_h1(shifts, m+1)
                         - (syzygy_h2(degrees, m) - syzygy_h2(degrees, m+1))
  kernel dimension   = restriction_h0(shifts, m+1)
                         - syzygy_module_dim(m+1) + syzygy_module_dim(m)

and both are cross-checked internally against the restricted Hilbert
function, which computes the same cokernel as a plain dimension count.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import NamedTuple, Sequence

from .binary import binary_power_resolution, syzygy_shifts_from_hilbert
from .config import CheckConfig
from .errors import GenericityError, HilbertDataError
from .lefschetz import distinct_forms
from .poly import LinearForm, basis_size, restrict_linear_form, restrict_mod_linear
from .quotient import Generator, GradedIdeal
from .rng import SplitMix64


class SplittingType(NamedTuple):
    """Twist degrees of the restricted relation module, plus the restricted socle."""

    shifts: tuple[int, ...]  # ascending
    restricted_socle: int

    @property
    def low_count(self) -> int:
        return sum(1 for b in self.shifts if b == self.restricted_socle + 1)

    @property
    def high_count(self) -> int:
        return sum(1 for b in self.shifts if b == self.restricted_socle + 2)

    @property
    def tail(self) -> tuple[int, ...]:
        """Shifts beyond restricted_socle + 2; redundant high-degree generators."""
        return tuple(b for b in self.shifts if b >= self.restricted_socle + 3)

    @property
    def gap(self) -> int:
        return self.shifts[-1] - self.shifts[0]

    @property
    def balanced(self) -> bool:
        return self.gap <= 1


def restriction_h0(shifts: Sequence[int], m: int) -> int:
    return sum(max(m - b + 1, 0) for b in shifts)


def restriction_h1(shifts: Sequence[int], m: int) -> int:
    return sum(max(b - m - 1, 0) for b in shifts)


def syzygy_h2(degrees: Sequence[int], m: int) -> int:
    return sum(comb(d - m - 1, 2) for d in degrees if d - m - 1 >= 2)


def predicted_splitting_type(exponents: Sequence[int]) -> SplittingType:
    """Generic splitting type of a three-variable ideal of powers, no sampling.

    The minimal sub-tuple contributes the two middle twist values from the
    two-variable resolution; each redundant power splits off its own degree.
    """
    resolution = binary_power_resolution(exponents)
    redundant = sorted(exponents)[resolution.num_generators:]
    shifts = tuple(sorted(resolution.shifts + tuple(redundant)))
    return SplittingType(shifts, resolution.socle_degree)


def _restrict_generators(ideal: GradedIdeal, ell: LinearForm) -> GradedIdeal:
    """The ideal of the generators that survive on the line ell = 0.

    A power (form, k) is cut through its form and stays a power.
    """
    survivors: list[Generator] = []
    for g in ideal.generators:
        if isinstance(g, tuple):
            cut = restrict_linear_form(g[0], ell)
            survivor = (cut, g[1])
        else:
            cut = survivor = restrict_mod_linear(g, ell)
        if not cut.is_zero:
            survivors.append(survivor)
    if len(survivors) < 2:
        # an Artinian ideal always keeps two generators alive on any line
        raise GenericityError("fewer than two generators survive the restriction")
    return GradedIdeal(ideal.num_vars - 1, tuple(survivors))


def _splitting_at(ideal: GradedIdeal, ell: LinearForm) -> tuple[SplittingType, tuple[int, ...]]:
    """Splitting type on the line ell = 0 and the restricted Hilbert function.

    The shifts are read off every generator degree: a generator that
    vanishes on the line is a zero entry of the generating tuple, which
    adds one free relation in exactly its own degree.
    """
    rhf = _restrict_generators(ideal, ell).algebra.hilbert_function()

    def ideal_dim(m: int) -> int:
        quotient = rhf[m] if 0 <= m < len(rhf) else 0
        return (m + 1) - quotient

    shifts = syzygy_shifts_from_hilbert(ideal.generator_degrees, ideal_dim)
    return SplittingType(shifts, len(rhf) - 1), rhf


def splitting_type_at(ideal: GradedIdeal, ell: LinearForm) -> SplittingType:
    """Exact splitting type on the line ell = 0 (dimension counts, no sampling).

    Valid for any nonzero form, generic or not: generators vanishing on the
    line each split off a twist equal to their own degree.
    """
    if ideal.num_vars != 3:
        raise ValueError("splitting data is defined for three variables")
    ideal.algebra.hilbert_function()  # Artinian or bust
    return _splitting_at(ideal, ell)[0]


def generic_splitting_type(
    ideal: GradedIdeal, config: CheckConfig | None = None
) -> tuple[SplittingType, LinearForm]:
    """Sample forms until two independent ones agree on the splitting type.

    Agreement of two samples is the acceptance rule; running out of
    attempts, or of distinct forms, without agreement raises GenericityError.
    """
    config = config or CheckConfig()
    forms = distinct_forms(SplitMix64(config.seed), ideal.num_vars, config.bound)
    seen: list[tuple[SplittingType, LinearForm]] = []
    for form in islice(forms, max(config.attempts, 2)):
        stype = splitting_type_at(ideal, form)
        for earlier, witness in seen:
            if earlier == stype:
                return stype, witness
        seen.append((stype, form))
    raise GenericityError(
        f"no two of {len(seen)} sampled forms agreed on a splitting type"
    )


class PredictedMapRecord(NamedTuple):
    """Predicted rank data for multiplication by the form, one source degree."""

    degree: int
    source_dim: int
    target_dim: int
    rank: int
    kernel_dim: int
    cokernel_dim: int

    @property
    def maximal(self) -> bool:
        return self.rank == min(self.source_dim, self.target_dim)


class WlpPrediction(NamedTuple):
    holds: bool
    form: LinearForm
    splitting: SplittingType
    hilbert: tuple[int, ...]
    records: tuple[PredictedMapRecord, ...]

    @property
    def failures(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.records if not r.maximal)


def syzygy_module_dim(degrees: Sequence[int], hilbert: Sequence[int], m: int) -> int:
    """Dimension of the degree-m piece of the three-variable relation module.

    ``hilbert`` is the quotient's Hilbert function; the ideal piece it
    implies is subtracted from the free module piece over the generators.
    """
    if m < 0:
        return 0
    ambient = basis_size(3, m)
    quotient = hilbert[m] if m < len(hilbert) else 0
    ideal_dim = ambient - quotient
    return sum(comb(m - d + 2, 2) for d in degrees if m - d >= 0) - ideal_dim


def connecting_image_dim(
    shifts: Sequence[int], degrees: Sequence[int], hilbert: Sequence[int], m: int
) -> int:
    """Predicted kernel dimension of multiplication by the form out of degree m.

    Restricted relation classes in degree m + 1 that do not lift to ambient
    relation classes are exactly the kernel of the multiplication map.
    """
    return (
        restriction_h0(shifts, m + 1)
        - syzygy_module_dim(degrees, hilbert, m + 1)
        + syzygy_module_dim(degrees, hilbert, m)
    )


def predict_wlp(ideal: GradedIdeal, ell: LinearForm) -> WlpPrediction:
    """Rank table for multiplication by ell, from splitting data alone.

    No multiplication matrix is ever formed: ranks come from the splitting
    type at ell and Hilbert function arithmetic.  Two independent formulas
    are evaluated for both the kernel and the cokernel; disagreement would
    mean the dimension counts are inconsistent and raises HilbertDataError
    rather than returning a number.
    """
    if ideal.num_vars != 3:
        raise ValueError("predictions are defined for three variables")
    hf = ideal.algebra.hilbert_function()
    top = len(hf) - 1
    stype, rhf = _splitting_at(ideal, ell)
    shifts = stype.shifts

    degrees = ideal.generator_degrees
    records = []
    for m in range(top):
        coker = restriction_h1(shifts, m + 1) - (syzygy_h2(degrees, m) - syzygy_h2(degrees, m + 1))
        elementary = rhf[m + 1] if m + 1 < len(rhf) else 0
        if coker != elementary:
            raise HilbertDataError(
                f"cokernel formulas disagree at degree {m}: {coker} vs {elementary}"
            )
        kernel = connecting_image_dim(shifts, degrees, hf, m)
        rank = hf[m + 1] - coker
        if kernel != hf[m] - rank:
            raise HilbertDataError(
                f"kernel formulas disagree at degree {m}: {kernel} vs {hf[m] - rank}"
            )
        records.append(PredictedMapRecord(m, hf[m], hf[m + 1], rank, kernel, coker))
    records = tuple(records)
    holds = all(r.maximal for r in records)
    return WlpPrediction(holds, ell, stype, hf, records)
