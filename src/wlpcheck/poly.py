"""Homogeneous polynomials in a fixed number of variables, exact coefficients.

A polynomial of degree d is the tuple of its nonzero terms, each a pair of
an exponent vector and a rational coefficient, listed in graded
lexicographic order with the variable order fixed once and for all: within
a degree the exponent vectors are in descending lexicographic order, so
x^2, x*y, x*z, y^2, y*z, z^2 for three variables in degree two.  Every
operation builds a list of terms and leaves merging, dropping zeros and
sorting to the constructor, so storage and work follow the number of terms,
never the number of monomials of the degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
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

    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        return self.items

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return dict(self.items).get(tuple(exponents), Q(0))

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise ValueError("mixed degrees or variable counts")
        return GradedPoly(self.num_vars, self.degree, self.items + other.items)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + -other

    def __neg__(self) -> "GradedPoly":
        return self.scale(-1)

    def scale(self, factor) -> "GradedPoly":
        f = _as_q(factor)
        return GradedPoly(self.num_vars, self.degree, [(e, f * c) for e, c in self.items])

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        return multiply(self, other)

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


def multinomial(degree: int, exponents: Sequence[int]) -> int:
    out = factorial(degree)
    for e in exponents:
        out //= factorial(e)
    return out


def expand_power(form: LinearForm, degree: int) -> GradedPoly:
    """Expand form**degree by the multinomial theorem."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if form.is_zero:
        raise ValueError("cannot expand a power of the zero form")
    # a variable whose coefficient is zero appears in no term
    caps = tuple(None if c else 1 for c in form.coeffs)
    terms = []
    for exps in exponent_vectors(form.num_vars, degree, caps):
        c = Q(multinomial(degree, exps))
        for base, e in zip(form.coeffs, exps):
            c *= base**e
        terms.append((exps, c))
    return GradedPoly(form.num_vars, degree, terms)


def multiply(f: GradedPoly, g: GradedPoly) -> GradedPoly:
    if f.num_vars != g.num_vars:
        raise ValueError("mixed variable counts")
    return GradedPoly(f.num_vars, f.degree + g.degree, [
        (tuple(a + b for a, b in zip(ef, eg)), cf * cg)
        for ef, cf in f.items
        for eg, cg in g.items
    ])


def _elimination_data(ell: LinearForm) -> tuple[int, LinearForm | None]:
    """Pick the variable to eliminate and the substituted form in the rest.

    Solves ell = 0 for the variable with the largest-magnitude coefficient
    (lowest index on ties).  Returns (index, substitution), where substitution
    is a linear form in the remaining variables or None when it is zero.
    """
    if ell.is_zero:
        raise ValueError("cannot restrict modulo the zero form")
    k = max(range(ell.num_vars), key=lambda i: (abs(ell.coeffs[i]), -i))
    pivot = ell.coeffs[k]
    rest = tuple(-c / pivot for i, c in enumerate(ell.coeffs) if i != k)
    if all(c == 0 for c in rest):
        return k, None
    return k, LinearForm(rest)


def restrict_linear_form(form: LinearForm, ell: LinearForm) -> LinearForm:
    """Image of a linear form in the quotient by ell, as a form in one fewer variable."""
    if form.num_vars != ell.num_vars:
        raise ValueError("mixed variable counts")
    if form.num_vars < 2:
        raise ValueError("need at least two variables to restrict")
    k, sub = _elimination_data(ell)
    reduced = tuple(c for i, c in enumerate(form.coeffs) if i != k)
    if sub is None:
        return LinearForm(reduced)
    lead = form.coeffs[k]
    return LinearForm(tuple(c + lead * s for c, s in zip(reduced, sub.coeffs)))


def restrict_mod_linear(f: GradedPoly, ell: LinearForm) -> GradedPoly:
    """Substitute away one variable along ell = 0; degree is preserved.

    The result lives in num_vars - 1 variables (remaining variables keep
    their relative order) and may be zero.
    """
    if f.num_vars != ell.num_vars:
        raise ValueError("mixed variable counts")
    if f.num_vars < 2:
        raise ValueError("need at least two variables to restrict")
    k, sub = _elimination_data(ell)
    terms = []
    power_cache: dict[int, GradedPoly] = {}
    for exps, c in f.items:
        rest = exps[:k] + exps[k + 1:]
        ek = exps[k]
        if ek == 0:
            terms.append((rest, c))
            continue
        if sub is None:
            continue  # the eliminated variable maps to zero
        if ek not in power_cache:
            power_cache[ek] = expand_power(sub, ek)
        terms.extend(
            (tuple(a + b for a, b in zip(rest, pexps)), c * pc)
            for pexps, pc in power_cache[ek].items
        )
    return GradedPoly(f.num_vars - 1, f.degree, terms)
