"""Polynomial layer: bases, rendering and cleared integer storage, against the dict oracle.

Powers of linear forms are multiplied out only by the oracle (``conftest.expand_power``).
Restriction to a hyperplane is ``GradedIdeal.restricted``, generator by generator; the
tests here check it one generator at a time, and ``test_quotient`` checks whole ideals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_power, times
from oracles import dict_from_graded, dict_mul, monomials
from wlpcheck import GenericityError, GradedIdeal
from wlpcheck.poly import (
    GradedPoly,
    LinearForm,
    basis_size,
    exponent_vectors,
    linear_form,
    variable_names,
)

coeff = st.integers(min_value=-9, max_value=9)


def linear_forms(num_vars):
    return st.lists(coeff, min_size=num_vars, max_size=num_vars).filter(
        lambda cs: any(cs)
    ).map(linear_form)


def graded_polys(num_vars, degree):
    monomials = tuple(exponent_vectors(num_vars, degree))
    return st.lists(coeff, min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: GradedPoly(num_vars, degree, zip(monomials, cs))
    )


# -- bases ------------------------------------------------------------------


def test_variable_names():
    assert variable_names(3) == ("x", "y", "z")
    assert variable_names(4) == ("x", "y", "z", "w")
    assert variable_names(5) == ("x1", "x2", "x3", "x4", "x5")


def test_monomial_order_is_graded_lex_descending():
    assert tuple(exponent_vectors(3, 2)) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )
    assert tuple(exponent_vectors(2, 3)) == ((3, 0), (2, 1), (1, 2), (0, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=7))
def test_basis_size_is_stars_and_bars(n, d):
    assert basis_size(n, d) == comb(d + n - 1, n - 1)
    assert list(exponent_vectors(n, d)) == sorted(monomials(n, d), reverse=True)
    assert len(list(exponent_vectors(n, d))) == basis_size(n, d)


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    # thousands of variables, read cheaply: the first vectors of an
    # uncapped degree, and capped degrees with one vector or none
    n = 5000
    zeros = (0,) * n
    first = list(islice(exponent_vectors(n, 2), 3))
    assert first == [(2,) + zeros[1:], (1, 1) + zeros[2:], (1, 0, 1) + zeros[3:]]
    assert list(exponent_vectors(n, n, (2,) * n)) == [(1,) * n]
    assert list(exponent_vectors(n, n + 1, (2,) * n)) == []
    assert list(exponent_vectors(n, 3, (1,) * (n - 1) + (None,))) == [zeros[1:] + (3,)]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=9),
            st.lists(st.none() | st.integers(min_value=1, max_value=5), min_size=n, max_size=n),
        )
    )
)
def test_capped_enumeration_filters_the_uncapped_one(args):
    n, d, caps = args
    expected = [
        u for u in exponent_vectors(n, d)
        if all(a is None or e < a for e, a in zip(u, caps))
    ]
    assert list(exponent_vectors(n, d, caps)) == expected


# -- rendering ---------------------------------------------------------------


def test_rendering():
    assert str(expand_power(linear_form([1, 1]), 2)) == "x^2 + 2*x*y + y^2"
    assert str(linear_form([-91, -7, -46])) == "-91*x - 7*y - 46*z"
    # fractional coefficients are stored, and printed, cleared to integers
    assert str(GradedPoly.monomial(3, (1, 1, 1), Fraction(-3, 2))) == "-3*x*y*z"
    assert str(GradedPoly(4, 2, [((0, 1, 0, 1), 1)])) == "y*w"
    assert str(GradedPoly(2, 3)) == "0"


# -- linear forms -------------------------------------------------------------


def test_proportionality():
    a = linear_form([2, -4, 6])
    assert a.proportional_to(linear_form([-1, 2, -3]))
    assert not a.proportional_to(linear_form([2, -4, 5]))
    assert not a.proportional_to(linear_form([0, 0, 1]))


def test_zero_form_rejected_in_ideal_context():
    z = LinearForm((Fraction(0), Fraction(0)))
    assert z.is_zero


# -- cleared integer storage ---------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12) | st.just(Fraction(0))


def _lcm_of_denominators(values):
    return lcm(*(Fraction(x).denominator for x in values))


def test_coeffs_frozen_cases():
    assert linear_form([Fraction(1, 2), Fraction(1, 3)]).coeffs == (3, 2)
    assert linear_form(["1/2", "1/3", 0]).coeffs == (3, 2, 0)
    assert linear_form([0, -2]).coeffs == (0, -2)
    assert linear_form([0, 0]).coeffs == (0, 0)
    # scaled by the lcm of the denominators, not made primitive
    assert linear_form([4, Fraction(-6, 5)]).coeffs == (20, -6)
    assert linear_form([4, 6]).coeffs == (4, 6)


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=5))
def test_coeffs_are_the_form_times_the_lcm_of_its_denominators(values):
    coeffs = linear_form(values).coeffs
    scale = _lcm_of_denominators(values)
    assert all(type(c) is int for c in coeffs)
    assert coeffs == tuple(scale * Fraction(x) for x in values)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.integers(min_value=0, max_value=3).flatmap(
            lambda d: st.tuples(
                st.just(n), st.just(d),
                st.lists(rationals, min_size=basis_size(n, d), max_size=basis_size(n, d)),
            )
        )
    )
)
def test_items_are_the_terms_times_the_lcm_of_their_denominators(args):
    n, d, values = args
    # each term given twice, as two halves, so the scale is read after merging
    halves = [(e, v / 2) for e, v in zip(exponent_vectors(n, d), values) for _ in range(2)]
    poly = GradedPoly(n, d, halves)
    scale = _lcm_of_denominators(values)
    assert all(type(c) is int for _, c in poly.items)
    assert poly.items == tuple((e, scale * v) for e, v in zip(exponent_vectors(n, d), values) if v)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n, max_size=n),
            st.lists(rationals, min_size=n, max_size=n),
            st.none() | rationals,
        )
    )
)
def test_proportional_to_agrees_with_fraction_cross_multiplication(args):
    a, b, factor = args
    if factor is not None:  # a multiple of a, so proportional pairs come up
        b = [factor * x for x in a]
    n = len(a)
    expected = all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))
    assert linear_form(a).proportional_to(linear_form(b)) == expected


# -- the oracle's expansion ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(linear_forms(n), st.integers(min_value=1, max_value=6))
    )
)
def test_expand_power_matches_repeated_multiplication(args):
    # the GradedPoly built from the oracle's expansion of form**k against
    # k - 1 dict products of the form's own terms
    form, k = args
    factor = dict_from_graded(form.as_poly())
    product = factor
    for _ in range(k - 1):
        product = dict_mul(product, factor)
    assert dict_from_graded(expand_power(form, k)) == product


# -- restriction to a hyperplane ----------------------------------------------


def _cut(generator, ell):
    """The one generator restricted to ell = 0, or None where it dies there."""
    n = ell.num_vars
    try:
        restricted = GradedIdeal(n, (generator, generator)).restricted(ell)
    except GenericityError:
        return None
    assert restricted.generators[0] == restricted.generators[1]
    return restricted.generators[0]


def _chart(ell):
    """The linear map y -> x onto the hyperplane that the restriction uses,
    read off from how the coordinate forms restrict."""
    n = ell.num_vars
    rows = []
    for i in range(n):
        cut = _cut((linear_form([int(j == i) for j in range(n)]), 1), ell)
        rows.append(cut[0].coeffs if cut is not None else (0,) * (n - 1))
    return lambda y: [sum(c * v for c, v in zip(row, y)) for row in rows]


def _evaluate(poly, point):
    total = Fraction(0)
    for exps, c in poly.items:
        term = c
        for e, v in zip(exps, point):
            term *= Fraction(v) ** e
        total += term
    return total


def _proportional(pairs):
    """Whether the first entries are one nonzero multiple of the second entries."""
    a0, b0 = next(((a, b) for a, b in pairs if a or b), (0, 0))
    return all(a * b0 == b * a0 for a, b in pairs) and (a0 != 0) == (b0 != 0)


# a degree-3 polynomial in two variables is fixed by its values on a 5 x 5 grid
GRID = range(-2, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(
            # an ideal has no zero generator to restrict
            st.integers(min_value=1, max_value=3).flatmap(lambda d: graded_polys(n, d)).filter(lambda f: not f.is_zero),
            linear_forms(n),
        )
    )
)
def test_restriction_agrees_on_the_hyperplane(args):
    f, ell = args
    chart = _chart(ell)
    points = list(product(GRID, repeat=ell.num_vars - 1))
    # the chart lands on the hyperplane and is onto it
    assert all(_evaluate(ell.as_poly(), chart(y)) == 0 for y in points)
    assert len({tuple(chart(y)) for y in points}) == len(points)
    restricted = _cut(f, ell)
    on_plane = [_evaluate(f, chart(y)) for y in points]
    if restricted is None:
        assert not any(on_plane)
        return
    assert restricted.num_vars == f.num_vars - 1
    assert restricted.degree == f.degree
    # the restriction is f on the hyperplane, up to one nonzero constant
    assert _proportional([(_evaluate(restricted, y), v) for y, v in zip(points, on_plane)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(linear_forms(n), linear_forms(n))
    )
)
def test_linear_restriction_is_the_degree_one_case(args):
    form, ell = args
    as_power = _cut((form, 1), ell)
    as_poly = _cut(form.as_poly(), ell)
    assert (as_power is None) == (as_poly is None) == form.proportional_to(ell)
    if as_power is not None:
        pushed, k = as_power
        assert k == 1
        a, b = dict(pushed.as_poly().items), dict(as_poly.items)
        assert _proportional([(a.get(u, 0), c) for u, c in b.items()] + [(c, b.get(u, 0)) for u, c in a.items()])


def test_restriction_kills_the_modulus():
    ell = linear_form([1, 2, 3])
    g = GradedPoly(3, 2, [((0, 1, 1), 1), ((2, 0, 0), 1)])
    assert _cut((ell, 1), ell) is None
    assert _cut((ell, 4), ell) is None
    assert _cut(ell.as_poly(), ell) is None
    assert _cut(times(ell.as_poly(), g), ell) is None
    y, z = linear_form([0, 1, 0]), linear_form([0, 0, 1])
    ideal = GradedIdeal(3, ((ell, 2), ell.as_poly(), times(ell.as_poly(), g), (y, 2), (z, 3)))
    restricted = ideal.restricted(ell)
    assert restricted.generators == (_cut((y, 2), ell), _cut((z, 3), ell))


def test_proportionality_needs_the_same_variables():
    assert not linear_form([1, 2]).proportional_to(linear_form([1, 2, 0]))
