"""Homogeneous polynomials in a fixed number of variables, integer coefficients.

A polynomial of degree d is the tuple of its nonzero terms, each a pair of
an exponent vector and an integer coefficient, listed in graded
lexicographic order with the variable order fixed once and for all: within
a degree the exponent vectors are in descending lexicographic order, so
x^2, x*y, x*z, y^2, y*z, z^2 for three variables in degree two.  The
constructor merges repeated exponent vectors, drops zeros and sorts, so
storage follows the number of terms, never the number of monomials of the
degree.  A polynomial is a validated record of its terms; it has no
arithmetic.

This is the one module where rationals become integers.  Coefficients may
be given as ints, Fractions or fraction strings.  A float or a bool is
rejected with a TypeError, and a string that is not a fraction with a
ValueError: nothing downstream tolerates rounding.  A linear form or a
polynomial stores them times the lcm of their denominators (after merging,
for a polynomial), so ints given as ints are stored as they are.  Scaling
a generator, a multiplier or a candidate member of an ideal by a nonzero
rational changes no ideal, no rank and no membership, so every rank is
computed over the integers, from ``LinearForm.coeffs`` and
``GradedPoly.items`` directly.

Nothing here changes coordinates or expands a power of a linear form.
Rewriting into normalized coordinates and restriction to a hyperplane are
both integer substitutions, done by :func:`wlpcheck.quotient.push_form`
and :func:`wlpcheck.quotient.push_poly`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from typing import Iterable, Iterator, Sequence

from .frozen import Frozen

Exponents = tuple[int, ...]

_SHORT_NAMES = ("x", "y", "z", "w")


def variable_names(num_vars: int) -> tuple[str, ...]:
    if num_vars <= len(_SHORT_NAMES):
        return _SHORT_NAMES[:num_vars]
    return tuple(f"x{i}" for i in range(1, num_vars + 1))


def exponent_vectors(
    num_vars: int, degree: int, caps: Sequence[int | None] | None = None
) -> Iterator[Exponents]:
    """The exponent vectors of one degree in graded-lex order, with
    u_i < caps[i] wherever a cap is given and not None.

    Iterative, so the number of variables is not bounded by the recursion
    limit: each vector is the largest one, in lexicographic order, below
    the last that still fits the caps.
    """
    caps = caps or (None,) * num_vars
    tops = [degree if caps[i] is None else min(degree, caps[i] - 1) for i in range(num_vars)]
    # room[i]: the largest degree that positions i, i + 1, ... can carry
    room = list(accumulate(reversed(tops), initial=0))[::-1]
    if min(tops) < 0 or room[0] < degree:
        return
    u = [0] * num_vars
    start, rest = 0, degree
    while True:
        # the largest vector with u[:start] fixed: fill greedily from the left
        for i in range(start, num_vars):
            u[i] = min(tops[i], rest)
            rest -= u[i]
        yield tuple(u)
        # the last position that can move one unit to the positions after it
        rest = 0
        for start in range(num_vars - 2, -1, -1):
            rest += u[start + 1]
            if u[start] and rest < room[start + 1]:
                break
        else:
            return
        u[start] -= 1
        start, rest = start + 1, rest + 1


def basis_size(num_vars: int, degree: int) -> int:
    return comb(degree + num_vars - 1, num_vars - 1)


def _exact(value) -> int | Fraction:
    """The one rule for which coefficient values are exact."""
    if isinstance(value, bool):
        raise TypeError("coefficient must be an integer or a fraction string")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad fraction string {value!r}") from None
    raise TypeError(f"coefficient must be exact, got {type(value).__name__}")


def _cleared(values: Sequence[int | Fraction]) -> tuple[int, ...]:
    """The values times the lcm of their denominators."""
    mult = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (mult // x.denominator) for x in values)


class LinearForm(Frozen):
    """A linear form given by its coefficient vector, stored cleared to integers."""

    _fields = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable):
        coeffs = _cleared([_exact(c) for c in coeffs])
        if len(coeffs) < 1:
            raise ValueError("a linear form needs at least one variable")
        super().__init__(coeffs)

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_poly(self) -> "GradedPoly":
        # the degree-1 exponent vectors list the variables in order
        return GradedPoly(self.num_vars, 1, zip(exponent_vectors(self.num_vars, 1), self.coeffs))

    def proportional_to(self, other: "LinearForm") -> bool:
        if self.num_vars != other.num_vars:
            return False
        a, b = self.coeffs, other.coeffs
        n = self.num_vars
        return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))

    def __str__(self) -> str:
        return str(self.as_poly())


def linear_form(coeffs: Iterable) -> LinearForm:
    return LinearForm(tuple(coeffs))


class GradedPoly(Frozen):
    """Homogeneous polynomial: its nonzero terms, in graded-lex order.

    ``items`` may be given in any order, with repeated exponents and zero
    coefficients; the constructor checks that every exponent vector is a
    monomial of the degree, adds repeated ones, drops zeros, sorts and
    clears the coefficients to integers.  With no items the polynomial is
    zero.
    """

    _fields = ("num_vars", "degree", "items")
    num_vars: int
    degree: int
    items: tuple[tuple[Exponents, int], ...]

    def __init__(self, num_vars: int, degree: int, items: Iterable = ()):
        if num_vars < 1 or degree < 0:
            raise ValueError("need num_vars >= 1 and degree >= 0")
        merged: dict[Exponents, int | Fraction] = {}
        for exponents, coeff in items:
            exps = tuple(exponents)
            if len(exps) != num_vars or min(exps) < 0 or sum(exps) != degree:
                raise ValueError(
                    f"exponents {exps} are not a degree-{degree} monomial "
                    f"in {num_vars} variables"
                )
            merged[exps] = merged.get(exps, 0) + _exact(coeff)
        # cleared after merging and dropping zeros, so the scale is the polynomial's own
        exponents = sorted((e for e, c in merged.items() if c), reverse=True)
        coeffs = _cleared([merged[e] for e in exponents])
        super().__init__(num_vars, degree, tuple(zip(exponents, coeffs)))

    @classmethod
    def monomial(cls, num_vars: int, exponents: Sequence[int], coeff=1) -> "GradedPoly":
        return cls(num_vars, sum(exponents), ((exponents, coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.items

    def __str__(self) -> str:
        names = variable_names(self.num_vars)
        pieces = []
        for exps, c in self.items:
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        if not pieces:
            return "0"
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out
