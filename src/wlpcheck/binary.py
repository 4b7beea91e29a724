"""Closed forms for ideals of powers of linear forms in two variables.

Everything here depends only on the list of exponents, because pairwise
non-proportional linear forms in two variables are dual to distinct points
of the projective line, and distinct points impose independent conditions
in every degree.  Concretely, for exponents d_1, ..., d_n the ideal piece
has dimension min(m + 1, sum_i max(m - d_i + 1, 0)).

From that single fact the module derives which powers are minimal
generators, the socle degree of the quotient, and the degrees (shifts) of
a basis of the relation module, which is free of rank n - 1 over a
two-variable polynomial ring.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import HilbertDataError, NotArtinianError


def _check_exponents(exponents: Sequence[int]) -> tuple[int, ...]:
    out = tuple(exponents)
    if not out:
        raise ValueError("need at least one exponent")
    if any(d < 1 for d in out):
        raise ValueError("exponents must be positive")
    return out


def minimal_power_degrees(exponents: Sequence[int]) -> tuple[int, ...]:
    """The sub-multiset of exponents whose powers are minimal generators.

    Sorted ascending.  A candidate power is kept while its exponent a
    satisfies (m - 1) * a <= (sum of the m kept exponents) - m; one or two
    kept powers admit no relation that could absorb the next one, so the
    first two always stay.  Once a candidate fails, every later (larger)
    one fails against the same kept set.
    """
    kept: list[int] = []
    for a in sorted(_check_exponents(exponents)):
        m = len(kept)
        if m >= 2 and (m - 1) * a > sum(kept) - m:
            break
        kept.append(a)
    return tuple(kept)


def power_ideal_dim(exponents: Sequence[int], m: int) -> int:
    """Dimension of the degree-m piece of the ideal of powers."""
    if m < 0:
        return 0
    return min(m + 1, sum(max(m - d + 1, 0) for d in exponents))


def power_quotient_dim(exponents: Sequence[int], m: int) -> int:
    if m < 0:
        return 0
    return (m + 1) - power_ideal_dim(exponents, m)


class BinaryResolution(NamedTuple):
    """Resolution data of a two-variable quotient by powers of linear forms.

    ``shifts`` are the generator degrees of the relation module, ascending:
    the value socle_degree + 2 appears ``high_count`` times and the value
    socle_degree + 1 fills the rest, one relation fewer than there are
    minimal generators.
    """

    minimal_degrees: tuple[int, ...]
    socle_degree: int
    shifts: tuple[int, ...]

    @property
    def num_generators(self) -> int:
        return len(self.minimal_degrees)

    @property
    def high_count(self) -> int:
        return sum(1 for b in self.shifts if b == self.socle_degree + 2)


def binary_power_resolution(exponents: Sequence[int]) -> BinaryResolution:
    """Socle degree and relation shifts from the exponents alone."""
    minimal = minimal_power_degrees(exponents)
    t = len(minimal)
    if t < 2:
        raise NotArtinianError(
            "one power of a linear form leaves a non-Artinian quotient in two variables"
        )
    total = sum(minimal)
    socle = (total - t) // (t - 1)
    high = total - (t - 1) * (socle + 1)
    shifts = (socle + 1,) * (t - 1 - high) + (socle + 2,) * high
    return BinaryResolution(minimal, socle, shifts)


def syzygy_shifts_from_hilbert(
    gen_degrees: Sequence[int], ideal_dim: Callable[[int], int]
) -> tuple[int, ...]:
    """Relation shifts of a two-variable presentation, from dimension counts.

    ``gen_degrees`` lists the degrees of any generating tuple (minimal or
    not) of an ideal of finite colength, and ``ideal_dim(m)`` must return
    the exact dimension of the ideal's degree-m piece.  The relation module
    is free of rank n - 1; its degree-m piece has dimension

        k(m) = sum_i max(m - d_i + 1, 0) - ideal_dim(m),

    so the multiplicity of a shift at m is the second difference
    k(m) - 2 k(m-1) + k(m-2).  Shifts are returned ascending; their sum
    always equals the sum of the generator degrees.
    """
    degrees = _check_exponents(gen_degrees)
    n = len(degrees)
    if n < 2:
        raise ValueError("a single generator has no relations to speak of")
    want = n - 1
    total = sum(degrees)

    def k(m: int) -> int:
        if m < 0:
            return 0
        return sum(max(m - d + 1, 0) for d in degrees) - ideal_dim(m)

    shifts: list[int] = []
    prev2 = prev1 = 0
    for m in range(total + 3):
        cur = k(m)
        mult = cur - 2 * prev1 + prev2
        if mult < 0:
            raise HilbertDataError(f"negative relation multiplicity at degree {m}")
        shifts.extend([m] * mult)
        prev2, prev1 = prev1, cur
        if len(shifts) == want:
            break
    if len(shifts) != want or sum(shifts) != total:
        raise HilbertDataError(
            "dimension counts are not those of a finite-colength ideal "
            f"generated in degrees {degrees}"
        )
    return tuple(shifts)


def power_syzygy_shifts(exponents: Sequence[int]) -> tuple[int, ...]:
    """Relation shifts for the full (possibly redundant) tuple of powers."""
    degrees = _check_exponents(exponents)
    return syzygy_shifts_from_hilbert(degrees, lambda m: power_ideal_dim(degrees, m))
