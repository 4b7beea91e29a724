"""Graded quotients: Hilbert functions, membership, multiplication maps."""

from __future__ import annotations

import gc
import weakref
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expanded, powers_ideal, seeded_power_ideal
from oracles import (
    dict_from_graded,
    monomials,
    naive_hilbert,
    naive_ideal_dim,
    naive_membership,
)
from wlpcheck import GenericityError, GradedIdeal, NotArtinianError, linear_form
from wlpcheck.binary import power_quotient_dim
from wlpcheck.linalg import IntRowBasis
from wlpcheck.poly import GradedPoly, basis_size, expand_power
from wlpcheck import quotient
from wlpcheck.quotient import QuotientAlgebra
from wlpcheck.splitting import _restrict_generators

SQUARES = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))


# -- construction and validation -------------------------------------------


def test_ideal_validation():
    with pytest.raises(ValueError):
        GradedIdeal.from_powers([])
    with pytest.raises(ValueError):
        GradedIdeal.from_polys([GradedPoly.zero(2, 3)])
    with pytest.raises(ValueError):
        GradedIdeal(2, (GradedPoly.monomial(3, (1, 0, 0)),))
    x = linear_form([1, 0, 0])
    for bad_power in (
        (linear_form([0, 0, 0]), 2),
        (linear_form([1, 0]), 2),
        (x, 0),
        (x, -1),
        (x, 2.0),
        (x, "2"),
        (x, True),
    ):
        with pytest.raises(ValueError):
            GradedIdeal(3, (bad_power,))


def test_degrees_and_power_flags():
    ideal = powers_ideal(((1, 0), 2), ((0, 1), 5))
    assert ideal.generator_degrees == (2, 5)
    # powers stay (form, k) pairs, unexpanded
    assert ideal.generators == ((linear_form([1, 0]), 2), (linear_form([0, 1]), 5))
    xy = GradedPoly.monomial(2, (1, 1))
    mixed = GradedIdeal(2, ideal.generators + (xy,))
    assert mixed.generator_degrees == (2, 5, 2)
    assert mixed.generators[2] is xy


def test_restricted_drops_dead_generators():
    ell = linear_form([1, 0, 0])
    restricted, dead = _restrict_generators(SQUARES, ell)
    # x^2 dies on the line x = 0; y^2 and z^2 survive as binary powers
    assert dead == (2,)
    assert restricted.num_vars == 2
    assert restricted.generators == ((linear_form([1, 0]), 2), (linear_form([0, 1]), 2))


def test_restricting_everything_away_is_rejected():
    only = powers_ideal(((1, 0, 0), 3))
    with pytest.raises(GenericityError):
        _restrict_generators(only, linear_form([1, 0, 0]))


# -- frozen example: three squares ------------------------------------------


def test_squares_hilbert_function():
    alg = SQUARES.algebra
    assert alg.hilbert_function() == (1, 3, 3, 1)
    assert alg.socle_degree() == 3
    assert alg.is_artinian()


def test_squares_standard_monomials_are_squarefree():
    alg = SQUARES.algebra
    for m in range(5):
        squarefree = [e for e in monomials(3, m) if max(e) < 2]
        assert alg.dimension(m) == len(squarefree)
        for e in monomials(3, m):
            assert alg.contains(GradedPoly.monomial(3, e)) == (max(e) >= 2)


def test_squares_multiplication_matrices():
    alg = SQUARES.algebra
    ell = linear_form([1, 2, 3]).as_poly()
    # (source, target) standard monomials and the matrix of multiplication by
    # ell between them: rows index the target, columns the source
    cases = [
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 0), (1, 0, 1), (0, 1, 1)),
         [[2, 1, 0], [3, 0, 1], [0, 3, 2]]),
        (((1, 1, 0), (1, 0, 1), (0, 1, 1)), ((1, 1, 1),), [[3, 2, 1]]),
    ]
    for source, target, matrix in cases:
        degree = sum(target[0])
        for j, exps in enumerate(source):
            image = GradedPoly.monomial(3, exps) * ell
            column = GradedPoly.from_terms(3, degree, zip(target, (row[j] for row in matrix)))
            assert alg.contains(image - column)
            assert not alg.contains(image - column - GradedPoly.monomial(3, target[0]))


def test_squares_reduction():
    alg = SQUARES.algebra
    f = expand_power(linear_form([1, 1, 0]), 2)  # (x+y)^2 = x^2 + 2xy + y^2
    reduced = GradedPoly.monomial(3, (1, 1, 0), 2)
    assert alg.contains(f - reduced)
    assert not alg.contains(f)
    assert alg.contains(GradedPoly.zero(3, 2))
    assert not alg.contains(GradedPoly.monomial(3, (0, 0, 0), 5))
    with pytest.raises(ValueError):
        alg.contains(GradedPoly.monomial(2, (1, 1)))
    # past the socle degree 3 the ideal is everything
    assert alg.contains(expand_power(linear_form([1, 2, 3]), 4))


# -- not-Artinian handling ----------------------------------------------------


def test_powers_that_do_not_span_fail_fast():
    flat = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 0), 3))
    with pytest.raises(NotArtinianError):
        flat.algebra.hilbert_function()
    assert not flat.algebra.is_artinian()


def test_non_power_non_artinian_reports_partial_dims():
    hollow = GradedIdeal.from_polys(
        [GradedPoly.monomial(2, (2, 0)), GradedPoly.monomial(2, (1, 1))]
    )
    with pytest.raises(NotArtinianError) as info:
        hollow.algebra.hilbert_function()
    dims = info.value.partial_dims
    assert len(dims) > 3
    assert all(d == 1 for d in dims[2:])  # only y^m survives in high degrees


def test_socle_bound_is_sharp_for_the_tightest_case():
    # monomial complete intersection x^d, y^d, z^d has socle degree 3(d-1)
    d = 3
    cubes = powers_ideal(((1, 0, 0), d), ((0, 1, 0), d), ((0, 0, 1), d))
    assert cubes.algebra.socle_degree() == 3 * (d - 1)


# -- oracle agreement ----------------------------------------------------------


def _ideal_dicts(ideal):
    return [dict_from_graded(g) for g in expanded(ideal)], list(ideal.generator_degrees)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=1000),
)
def test_binary_hilbert_matches_closed_form(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=99, index=salt, num_vars=2)
    alg = QuotientAlgebra(ideal)
    hf = alg.hilbert_function()
    for m, value in enumerate(hf):
        assert value == power_quotient_dim(degrees, m)
    assert power_quotient_dim(degrees, len(hf)) == 0


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=4),
    st.integers(min_value=0, max_value=1000),
)
def test_three_variable_dimensions_match_naive_oracle(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=7, index=salt, num_vars=3)
    alg = QuotientAlgebra(ideal)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    top = max(degrees)
    for m in range(3 * top):
        ours = alg.dimension(m)
        ambient = basis_size(3, m)
        naive = naive_ideal_dim(gen_dicts, gen_degrees, 3, m)
        assert alg.piece(m).ideal_rank == naive
        assert ours + naive == ambient
        if ours == 0:
            break


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=3),
)
def test_membership_matches_naive_oracle(degrees, salt, probe_power):
    ideal = seeded_power_ideal(degrees, seed=13, index=salt, num_vars=2)
    alg = QuotientAlgebra(ideal)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    probe_ideal = seeded_power_ideal([probe_power], seed=14, index=salt, num_vars=2)
    (probe,) = expanded(probe_ideal)
    expected = naive_membership(
        gen_dicts, gen_degrees, 2, dict_from_graded(probe), probe.degree
    )
    assert alg.contains(probe) == expected


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=3), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=500),
)
def test_full_hilbert_function_matches_naive_oracle(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=21, index=salt, num_vars=3)
    alg = QuotientAlgebra(ideal)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * max(degrees) + 1)
    assert expected is not None
    assert alg.hilbert_function() == expected


def test_mixed_ideal_hilbert_matches_naive_oracle():
    powers = seeded_power_ideal([3, 3, 4], seed=31, index=0, num_vars=3)
    # the product of the power forms, a monomial in the algebra's coordinates
    a, b, c = (form.as_poly() for form, _ in powers.generators)
    cubic = a * b * c
    ideal = GradedIdeal(3, powers.generators + (cubic,))
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * 4 + 1)
    assert expected is not None
    assert QuotientAlgebra(ideal).hilbert_function() == expected


def test_polynomials_make_too_few_power_forms_artinian():
    # the power forms span only a plane, and one of them repeats; the cubic
    # is monic in z, which makes the quotient Artinian
    powers = powers_ideal(((1, 1, 0), 2), ((1, -2, 0), 3), ((1, 1, 0), 3))
    z = GradedPoly.monomial(3, (0, 0, 1))
    cubic = z * z * z + expanded(powers)[0] * z  # z^3 + (x + y)^2 z
    ideal = GradedIdeal(3, powers.generators + (cubic,))
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * 3 + 1)
    assert expected is not None
    assert QuotientAlgebra(ideal).hilbert_function() == expected


def _complete_intersection_series(exponents, num_vars):
    """Coefficients of prod(1 - t^a) / (1 - t)^n up to the socle degree."""
    numerator = [1]
    for a in exponents:
        padded = numerator + [0] * a
        numerator = [x - (padded[i - a] if i >= a else 0) for i, x in enumerate(padded)]
    socle = sum(exponents) - num_vars
    return tuple(
        sum(c * comb(m - i + num_vars - 1, num_vars - 1) for i, c in enumerate(numerator) if i <= m)
        for m in range(socle + 1)
    )


def test_complete_intersection_of_powers_needs_no_elimination(monkeypatch):
    calls = []
    original = IntRowBasis.extend

    def counting(self, rows):
        calls.append(self.ncols)
        return original(self, rows)

    monkeypatch.setattr(IntRowBasis, "extend", counting)
    exponents = (3, 2, 4, 2)
    ideal = seeded_power_ideal(exponents, seed=41, index=0, num_vars=4)
    assert QuotientAlgebra(ideal).hilbert_function() == _complete_intersection_series(exponents, 4)
    assert calls == []


def test_ideal_owns_its_algebra():
    ideal = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))
    alg = ideal.algebra
    assert alg is ideal.algebra
    assert alg.generators == ideal.generators
    g = (linear_form([1, 1, 1]), 1)
    assert alg.adjoined(g).generators == ideal.generators + (g,)
    assert alg.adjoined(g) is alg.adjoined(g)
    # no hidden cache and no reference cycle: the algebra, and the algebra
    # it adjoined, go with the ideal, without the cyclic collector
    assert alg.hilbert_function() == (1, 3, 3, 1)
    gone = weakref.ref(alg)
    gone_adjoined = weakref.ref(alg.adjoined(g))
    gc.disable()
    try:
        del ideal, alg
        assert gone() is None
        assert gone_adjoined() is None
    finally:
        gc.enable()


def test_membership_on_a_piece_certified_by_its_row_count(monkeypatch):
    calls = []
    original = IntRowBasis.extend

    def counting(self, rows):
        calls.append(self.ncols)
        return original(self, rows)

    monkeypatch.setattr(IntRowBasis, "extend", counting)
    # three cubes pick the coordinates; the fourth cube is the only row in
    # degree 3, one row against seven standard monomials
    ideal = seeded_power_ideal([3, 3, 3, 3], seed=43, index=0, num_vars=3)
    alg = QuotientAlgebra(ideal)
    piece = alg.piece(3)
    assert (piece.ideal_rank, piece.ambient_dim) == (4, 10)
    assert calls == []
    first, _, _, fourth = expanded(ideal)
    assert alg.contains(fourth.scale(3) - first)
    stranger = expand_power(linear_form([1, 1, 1]), 3)
    assert not alg.contains(stranger)
    assert not alg.contains(fourth + stranger)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    assert not naive_membership(gen_dicts, gen_degrees, 3, dict_from_graded(stranger), 3)


def test_a_low_modular_rank_is_never_trusted(monkeypatch):
    # an unlucky prime gives a rank mod p below min(#rows, #cols); such an
    # answer must send the piece to exact elimination
    real = quotient.rank_mod_prime
    monkeypatch.setattr(quotient, "rank_mod_prime", lambda rows, ncols: max(real(rows, ncols) - 1, 0))
    ideal = seeded_power_ideal([2, 2, 3, 3, 2], seed=44, index=0, num_vars=3)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * 3 + 1)
    assert expected is not None
    assert QuotientAlgebra(ideal).hilbert_function() == expected
