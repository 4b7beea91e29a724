"""Polynomial layer: bases, arithmetic, powers, and hyperplane restriction."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_from_graded, dict_linear, dict_mul, dict_pow
from wlpcheck.poly import (
    GradedPoly,
    LinearForm,
    basis_size,
    expand_power,
    exponent_vectors,
    linear_form,
    multinomial,
    multiply,
    restrict_linear_form,
    restrict_mod_linear,
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
    assert len(list(exponent_vectors(n, d))) == basis_size(n, d)


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
    assert str(GradedPoly.monomial(3, (1, 1, 1), Fraction(-3, 2))) == "-3/2*x*y*z"
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


# -- arithmetic against the dict oracle ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(linear_forms(n), st.integers(min_value=1, max_value=6))
    )
)
def test_expand_power_matches_repeated_multiplication(args):
    form, k = args
    expanded = expand_power(form, k)
    assert expanded.degree == k
    assert dict_from_graded(expanded) == dict_pow(dict_linear(form.coeffs), k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=1, max_value=3).flatmap(lambda d: graded_polys(n, d)),
            st.integers(min_value=1, max_value=3).flatmap(lambda d: graded_polys(n, d)),
        )
    )
)
def test_multiply_matches_dict_convolution(pair):
    f, g = pair
    product = multiply(f, g)
    assert product.degree == f.degree + g.degree
    assert dict_from_graded(product) == dict_mul(dict_from_graded(f), dict_from_graded(g))
    assert multiply(g, f) == product
    assert f * g == product


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(lambda n: graded_polys(n, 2)))
def test_additive_group_laws(f):
    zero = GradedPoly(f.num_vars, f.degree)
    assert f + zero == f
    assert f - f == zero
    assert (-f) + f == zero
    assert f.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == f


def test_multinomial_values():
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(2, (1, 1)) == 2


def test_incompatible_operands_rejected():
    f = GradedPoly.monomial(2, (1, 0))
    g = GradedPoly.monomial(3, (1, 0, 0))
    with pytest.raises(ValueError):
        _ = f + g


# -- restriction to a hyperplane ----------------------------------------------


def _solve_on_hyperplane(ell, reduced_point):
    """Lift a point of the hyperplane chart back to the ambient space."""
    k = max(range(ell.num_vars), key=lambda i: (abs(ell.coeffs[i]), -i))
    point = list(reduced_point)
    others = point[:k] + [None] + point[k:]
    value = -sum(
        c * v for i, (c, v) in enumerate(zip(ell.coeffs, others)) if i != k
    ) / ell.coeffs[k]
    others[k] = value
    return others


def _evaluate(poly, point):
    total = Fraction(0)
    for exps, c in poly.terms():
        term = c
        for e, v in zip(exps, point):
            term *= Fraction(v) ** e
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=1, max_value=3).flatmap(lambda d: graded_polys(n, d)),
            linear_forms(n),
            st.lists(coeff, min_size=n - 1, max_size=n - 1),
        )
    )
)
def test_restriction_agrees_on_the_hyperplane(args):
    f, ell, reduced_point = args
    restricted = restrict_mod_linear(f, ell)
    assert restricted.num_vars == f.num_vars - 1
    assert restricted.degree == f.degree
    ambient_point = _solve_on_hyperplane(ell, reduced_point)
    assert _evaluate(restricted, [Fraction(v) for v in reduced_point]) == _evaluate(
        f, ambient_point
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(linear_forms(n), linear_forms(n), st.lists(coeff, min_size=n - 1, max_size=n - 1))
    )
)
def test_linear_restriction_is_the_degree_one_case(args):
    form, ell, reduced_point = args
    restricted = restrict_linear_form(form, ell)
    via_poly = restrict_mod_linear(form.as_poly(), ell)
    assert restricted.as_poly() == via_poly


def test_restriction_kills_the_modulus():
    ell = linear_form([1, 2, 3])
    assert restrict_mod_linear(ell.as_poly(), ell).is_zero
    assert restrict_linear_form(ell, ell).is_zero


def test_restriction_eliminates_largest_coefficient():
    # the eliminated variable is the one with the largest |coefficient|,
    # first such on ties, so x + 5y restricts x -> x (y eliminated)
    f = GradedPoly.monomial(2, (1, 0))
    restricted = restrict_mod_linear(f, linear_form([1, 5]))
    assert restricted == GradedPoly.monomial(1, (1,))
