"""Homogeneous polynomials in a fixed number of variables, exact coefficients.

A polynomial of degree d is the tuple of its nonzero terms, each a pair of
an exponent vector and a rational coefficient, listed in graded
lexicographic order with the variable order fixed once and for all: within
a degree the exponent vectors are in descending lexicographic order, so
x^2, x*y, x*z, y^2, y*z, z^2 for three variables in degree two.  The
constructor merges repeated exponent vectors, drops zeros and sorts, so
storage follows the number of terms, never the number of monomials of the
degree.  A polynomial is a validated record of its terms; it has no
arithmetic.

This is the one module where rationals become integers.  Scaling a
generator by a nonzero rational leaves the ideal unchanged, so every rank
is computed over the integers, from the integer views
``LinearForm.integer_coeffs`` and ``GradedPoly.integer_terms``: the
coefficients times the lcm of their denominators, computed once per value.

Nothing here changes coordinates or expands a power of a linear form.
Rewriting into normalized coordinates and restriction to a hyperplane are
both integer substitutions, done by :func:`wlpcheck.quotient.push_form`
and :func:`wlpcheck.quotient.push_poly`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from typing import Iterable, Iterator, Sequence

from .frozen import Frozen

Q = Fraction
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
    u_i < caps[i] wherever a cap is given and not None."""
    caps = caps or (None,) * num_vars
    top = degree if caps[0] is None else min(degree, caps[0] - 1)
    if num_vars == 1:
        if top == degree:
            yield (degree,)
        return
    for head in range(top, -1, -1):
        for tail in exponent_vectors(num_vars - 1, degree - head, caps[1:]):
            yield (head,) + tail


def basis_size(num_vars: int, degree: int) -> int:
    return comb(degree + num_vars - 1, num_vars - 1)


def _as_q(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        return Q(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _cleared(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The values scaled by the lcm of their denominators."""
    mult = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (mult // x.denominator) for x in values)


class LinearForm(Frozen):
    """A linear form given by its coefficient vector."""

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable):
        coeffs = tuple(_as_q(c) for c in coeffs)
        if len(coeffs) < 1:
            raise ValueError("a linear form needs at least one variable")
        super().__init__(coeffs)

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @cached_property
    def integer_coeffs(self) -> tuple[int, ...]:
        """The coefficients times the lcm of their denominators."""
        return _cleared(self.coeffs)

    def as_poly(self) -> "GradedPoly":
        # the degree-1 exponent vectors list the variables in order
        return GradedPoly(self.num_vars, 1, zip(exponent_vectors(self.num_vars, 1), self.coeffs))

    def proportional_to(self, other: "LinearForm") -> bool:
        if self.num_vars != other.num_vars:
            return False
        a, b = self.integer_coeffs, other.integer_coeffs
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
    monomial of the degree, adds repeated ones, drops zeros and sorts.
    With no items the polynomial is zero.
    """

    _fields = ("num_vars", "degree", "items")
    num_vars: int
    degree: int
    items: tuple[tuple[Exponents, Fraction], ...]

    def __init__(self, num_vars: int, degree: int, items: Iterable = ()):
        if num_vars < 1 or degree < 0:
            raise ValueError("need num_vars >= 1 and degree >= 0")
        merged: dict[Exponents, Fraction] = {}
        for exponents, coeff in items:
            exps = tuple(exponents)
            if len(exps) != num_vars or min(exps) < 0 or sum(exps) != degree:
                raise ValueError(
                    f"exponents {exps} are not a degree-{degree} monomial "
                    f"in {num_vars} variables"
                )
            merged[exps] = merged.get(exps, 0) + _as_q(coeff)
        # exponent vectors are distinct, so the sort never compares coefficients
        super().__init__(num_vars, degree, tuple(sorted(
            ((e, c) for e, c in merged.items() if c), reverse=True
        )))

    @classmethod
    def monomial(cls, num_vars: int, exponents: Sequence[int], coeff=Q(1)) -> "GradedPoly":
        return cls(num_vars, sum(exponents), ((exponents, coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.items

    @cached_property
    def integer_terms(self) -> tuple[tuple[Exponents, int], ...]:
        """The terms with their coefficients times the lcm of their denominators."""
        return tuple(zip((e for e, _ in self.items), _cleared([c for _, c in self.items])))

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
