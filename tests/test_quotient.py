"""Graded quotients: Hilbert functions, membership, multiplication maps."""

from __future__ import annotations

import gc
import json
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import combine, expand_power, expanded, powers_ideal, seeded_forms, seeded_power_ideal, times
from oracles import (
    det,
    dict_from_graded,
    dict_linear,
    dict_pow,
    frac_rank,
    frac_rref,
    monomials,
    naive_hilbert,
    naive_ideal_dim,
    naive_membership,
)
from wlpcheck import GenericityError, GradedIdeal, NotArtinianError, linear_form
from wlpcheck.binary import power_quotient_dim
from wlpcheck.linalg import FAST_PRIME, IntRowBasis, rank_mod_prime
from wlpcheck.poly import GradedPoly, basis_size, exponent_vectors
from wlpcheck import cli, linalg, quotient
from wlpcheck.quotient import QuotientAlgebra
from wlpcheck.rng import TrialConfig
from wlpcheck.trials import run_random_trials

SQUARES = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))


# -- construction and validation -------------------------------------------


def test_ideal_validation():
    with pytest.raises(ValueError):
        GradedIdeal.from_powers([])
    with pytest.raises(ValueError):
        GradedIdeal.from_polys([GradedPoly(2, 3)])
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
    restricted = SQUARES.restricted(ell)
    # x^2 dies on the line x = 0; y^2 and z^2 survive as binary powers
    assert restricted.num_vars == 2
    assert restricted.generators == ((linear_form([1, 0]), 2), (linear_form([0, 1]), 2))


def test_restricting_two_variables_keeps_one_generator():
    # (x^2, y^2) cut by x = 0 is (y^2): one generator is Artinian in one variable
    x, y = linear_form([1, 0]), linear_form([0, 1])
    restricted = GradedIdeal.from_powers([(x, 2), (y, 2)]).restricted(x)
    assert restricted.num_vars == 1
    assert restricted.generators == ((linear_form([1]), 2),)
    assert restricted.algebra.hilbert_function() == (1, 1)


def test_restricting_everything_away_is_rejected():
    only = powers_ideal(((1, 0, 0), 3))
    with pytest.raises(GenericityError):
        only.restricted(linear_form([1, 0, 0]))


@pytest.mark.parametrize("ell", [linear_form([0, 0, 0]), linear_form([1, 0])], ids=["zero", "two-variables"])
def test_restriction_needs_a_nonzero_form_in_the_ideal_s_variables(ell):
    with pytest.raises(ValueError, match="restriction needs a nonzero form"):
        SQUARES.restricted(ell)


def test_a_negative_degree_has_no_piece():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        SQUARES.algebra.piece(-1)
    assert SQUARES.algebra.piece(0) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_restriction_has_the_hilbert_function_of_the_ideal_plus_the_line(data):
    # powers and polynomials with fractional coefficients, cut by a general
    # line, by the form of a power, or by a factor of a polynomial generator;
    # the oracle eliminates I + (ell) in all n variables
    n = data.draw(st.integers(min_value=2, max_value=3), label="n")
    salt = data.draw(st.integers(min_value=0, max_value=10**6), label="salt")
    degrees = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n + 1, max_size=n + 2))
    forms = seeded_forms(n, len(degrees) + 1, salt)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def poly(degree):
        monos = tuple(exponent_vectors(n, degree))
        values = data.draw(st.lists(coeffs, min_size=len(monos), max_size=len(monos)).filter(any))
        return GradedPoly(n, degree, zip(monos, values))

    gens = list(zip(forms, degrees))
    gens += [poly(d) for d in data.draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))]
    cut = data.draw(st.sampled_from(["general", "power", "polynomial"]), label="cut")
    ell = forms[0] if cut == "power" else forms[-1]
    if cut == "polynomial":
        gens.append(times(ell.as_poly(), poly(data.draw(st.integers(min_value=1, max_value=2)))))
    ideal = GradedIdeal(n, tuple(gens))
    gen_dicts = [dict_from_graded(g) for g in expanded(ideal)] + [dict_linear(ell.coeffs)]
    expected = naive_hilbert(gen_dicts, ideal.generator_degrees + (1,), n, n * 3)
    restricted = ideal.restricted(ell)
    assert restricted.num_vars == n - 1
    if cut != "general":
        assert len(restricted.generators) < len(gens)
    if expected is None:
        with pytest.raises(NotArtinianError):
            restricted.algebra.hilbert_function()
    else:
        assert restricted.algebra.hilbert_function() == expected


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
        assert alg.piece(m) == len(squarefree)
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
            image = times(GradedPoly.monomial(3, exps), ell)
            column = GradedPoly(3, degree, zip(target, (row[j] for row in matrix)))
            assert alg.contains(combine((1, image), (-1, column)))
            assert not alg.contains(combine((1, image), (-1, column), (-1, GradedPoly.monomial(3, target[0]))))


def test_squares_reduction():
    alg = SQUARES.algebra
    f = expand_power(linear_form([1, 1, 0]), 2)  # (x+y)^2 = x^2 + 2xy + y^2
    reduced = GradedPoly.monomial(3, (1, 1, 0), 2)
    assert alg.contains(combine((1, f), (-1, reduced)))
    assert not alg.contains(f)
    assert alg.contains(GradedPoly(3, 2))
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
        ours = alg.piece(m)
        naive = naive_ideal_dim(gen_dicts, gen_degrees, 3, m)
        assert basis_size(3, m) - ours == naive
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
    cubic = times(times(a, b), c)
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
    cubic = combine((1, GradedPoly.monomial(3, (0, 0, 3))), (1, times(expanded(powers)[0], z)))  # z^3 + (x + y)^2 z
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


def _count_rank_calls(monkeypatch):
    """Log the column count of every exact elimination and "mod p" for every screen."""
    calls = []
    extend = IntRowBasis.extend
    screen = linalg.rank_mod_prime

    def counting_extend(self, rows):
        calls.append(self.ncols)
        return extend(self, rows)

    def counting_screen(rows, ncols):
        calls.append("mod p")
        return screen(rows, ncols)

    monkeypatch.setattr(IntRowBasis, "extend", counting_extend)
    monkeypatch.setattr(linalg, "rank_mod_prime", counting_screen)
    return calls


def test_membership_on_a_piece_certified_by_its_row_count(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    # three cubes pick the coordinates; the fourth cube is the only row in
    # degree 3, one row against seven standard monomials
    ideal = seeded_power_ideal([3, 3, 3, 3], seed=43, index=0, num_vars=3)
    alg = QuotientAlgebra(ideal)
    assert basis_size(3, 3) - alg.piece(3) == 4
    # below NUMPY_CELLS a piece is eliminated exactly at once, with no screen mod p
    assert 1 * 7 < linalg.NUMPY_CELLS
    assert calls == [7]
    first, _, _, fourth = expanded(ideal)
    assert alg.contains(combine((3, fourth), (-1, first)))
    stranger = expand_power(linear_form([1, 1, 1]), 3)
    assert not alg.contains(stranger)
    assert not alg.contains(combine((1, fourth), (1, stranger)))
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    assert not naive_membership(gen_dicts, gen_degrees, 3, dict_from_graded(stranger), 3)


def test_a_big_piece_certified_mod_p_runs_no_exact_elimination(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    # five general quartics in four variables: 20 rows against 40 standard
    # monomials in degree 7, of full rank mod p
    ideal = seeded_power_ideal([4] * 5, seed=45, num_vars=4)
    piece = ideal.algebra.piece(7)
    assert 20 * 40 >= linalg.NUMPY_CELLS
    assert calls == ["mod p"]
    assert basis_size(4, 7) - piece == basis_size(4, 7) - 40 + 20


def _one_short_mod_p(monkeypatch) -> list[int]:
    """Screen every matrix mod p, and make each screen one short of the
    true rank, so every one falls back to exact elimination; returns the
    list of screened row counts."""
    screened = []
    real = linalg.rank_mod_prime

    def one_short(rows, ncols):
        screened.append(len(rows))
        return max(real(rows, ncols) - 1, 0)

    monkeypatch.setattr(linalg, "NUMPY_CELLS", 1)
    monkeypatch.setattr(linalg, "rank_mod_prime", one_short)
    return screened


def test_a_low_modular_rank_is_never_trusted(monkeypatch):
    # an unlucky prime gives a rank mod p below min(#rows, #cols); such an
    # answer must send the piece to exact elimination, whether the piece is
    # ranked whole (four cubes: one leaves rows) or in the framed cube's
    # cokernel (five cubes: two leave rows)
    screened = _one_short_mod_p(monkeypatch)
    for exponents, in_cokernel in (([3, 3, 3, 3], False), ([3, 3, 3, 3, 3], True)):
        ideal = seeded_power_ideal(exponents, seed=44, index=0, num_vars=3)
        gen_dicts, gen_degrees = _ideal_dicts(ideal)
        expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * 3 + 1)
        assert expected is not None
        screened.clear()
        alg = QuotientAlgebra(ideal)
        assert alg.hilbert_function() == expected
        assert screened  # the fallback was reached
        assert (alg._cokernels is not None) == in_cokernel


def test_integer_rows_that_vanish_mod_p_fall_back_to_exact_rank(monkeypatch):
    # x*f = p x^2yz + x^3y projects to p x^2yz, as x^3 is not standard: a row
    # that is nonzero over the integers and zero mod p.  It lowers the rank
    # mod p below the row count, so the degree-4 piece, screened mod p like
    # every piece here, is ranked exactly.
    monkeypatch.setattr(linalg, "NUMPY_CELLS", 1)
    powers = powers_ideal(((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3))
    f = GradedPoly(3, 3, [((1, 1, 1), FAST_PRIME), ((2, 1, 0), 1)])
    ideal = GradedIdeal(3, powers.generators + (f,))
    alg = ideal.algebra
    rows = alg.spanning_rows(4)
    ncols = len(rows[0])
    assert all(any(row) for row in rows)
    assert [0] * ncols in [[x % FAST_PRIME for x in row] for row in rows]
    assert rank_mod_prime(rows, ncols) < len(rows)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * 3 + 1)
    assert expected is not None
    assert alg.hilbert_function() == expected


def test_a_piece_that_falls_back_builds_its_rows_once(monkeypatch):
    built = []
    cokernels = []
    original = QuotientAlgebra._rows

    def counting(self, m, others, target, width):
        # the two cubes leave rows from degree 3 on, where a piece builds the
        # second cube's rows, and the framed cube's once for their cokernel
        (cokernels if others == self._others[:1] else built).append(m)
        return original(self, m, others, target, width)

    monkeypatch.setattr(QuotientAlgebra, "_rows", counting)
    # a rank mod p one short of full sends every piece with rows to exact
    # elimination, which must reuse the rows already built
    screened = _one_short_mod_p(monkeypatch)
    ideal = seeded_power_ideal([3, 3, 3, 3, 3], seed=44, index=0, num_vars=3)
    gen_dicts, gen_degrees = _ideal_dicts(ideal)
    expected = naive_hilbert(gen_dicts, gen_degrees, 3, 3 * 3 + 1)
    assert QuotientAlgebra(ideal).hilbert_function() == expected
    assert expected == (1, 3, 6, 5, 1)
    # the second cube's projected rows are screened in degrees 3 and 4;
    # in degree 5 the framed cube's rows span the piece, so its cokernel is
    # empty and the second cube's rows there are never built
    assert screened == [1, 3]
    assert cokernels == [3, 4, 5]
    assert built == [0, 1, 2, 3, 4]


# -- normalized coordinates: picked forms, then unit vectors off their pivots --


@st.composite
def mixed_ideals(draw):
    """An ideal in 2-5 variables of powers and polynomials.  The power forms
    are small multiples of at most n + 2 base forms, so repeated and
    proportional forms are common, and often fewer than n are independent."""
    n = draw(st.integers(min_value=2, max_value=5))
    coeffs = st.integers(min_value=-3, max_value=3)
    base = draw(st.lists(st.lists(coeffs, min_size=n, max_size=n).filter(any), min_size=1, max_size=n + 2))
    powers = st.tuples(st.sampled_from(base), st.sampled_from([-2, -1, 1, 3]), st.integers(min_value=1, max_value=4))
    gens = [(linear_form([s * c for c in form]), k) for form, s, k in draw(st.lists(powers, max_size=n + 3))]
    for degree in draw(st.lists(st.integers(min_value=1, max_value=3), min_size=0 if gens else 1, max_size=2)):
        terms = st.dictionaries(st.sampled_from(monomials(n, degree)), coeffs.filter(bool), min_size=1, max_size=4)
        gens.append(GradedPoly(n, degree, draw(terms).items()))
    return GradedIdeal(n, tuple(gens))


@settings(max_examples=150, deadline=None)
@given(mixed_ideals())
def test_the_coordinates_are_the_picked_forms_then_unit_vectors_off_their_pivots(ideal):
    n, alg = ideal.num_vars, ideal.algebra
    gens = ideal.generators
    powers = [gens[i] for _, i in sorted((g[1], i) for i, g in enumerate(gens) if isinstance(g, tuple))]
    # smallest exponents first, a form is picked when it is independent of
    # those before it
    picked = []
    for form, a in powers:
        if frac_rank([c for _, c in picked] + [list(form.coeffs)]) > len(picked):
            picked.append((a, list(form.coeffs)))
    forms = [c for _, c in picked]
    off = [j for j in range(n) if j not in frac_rref(forms)[1]]
    assert alg._bounds == tuple(a for a, _ in picked) + (None,) * len(off)

    def push(coeffs):
        return {j: x for j, x in enumerate(quotient.push_form(coeffs, alg._substitution, n)) if x}

    # y_k = c_k . x, for c_k the picked forms and then the unit vectors e_j
    # off their pivots, so c_k pushes to a positive multiple of y_k, times
    # the sign the frame gives y_k
    coordinates = forms + [[int(i == j) for i in range(n)] for j in off]
    signs = [1] * n
    for form, _ in powers:
        framed = push(form.coeffs)
        if len(framed) > 1:
            # the first power whose pushed form has two or more terms is the
            # frame: it pushes to P (sum_j y_j), P > 0, for y_j scaled by
            # P / p_j, and p_j has the sign of its coordinate in the c_k
            # (Cramer's rule)
            assert len(set(framed.values())) == 1 and min(framed.values()) > 0
            for j in framed:
                signs[j] = det(coordinates) * det(coordinates[:j] + [list(form.coeffs)] + coordinates[j + 1:])
            break
    for k, coeffs in enumerate(coordinates):
        pushed = push(coeffs)
        assert list(pushed) == [k]
        assert pushed[k] * signs[k] > 0


# -- rewriting and the shared standard-monomial tables ----------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=5),
    st.lists(st.integers(min_value=1, max_value=4), min_size=5, max_size=7),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=6),
)
def test_a_power_rewrites_as_its_expansion(num_vars, degrees, salt, k):
    # the multinomial expansion of (form, k) against the product rule on the
    # expanded polynomial: the chosen powers (which drop out), the others,
    # new exponents, a form supported on two coordinates, a fractional form
    # and forms outside the ideal
    ideal = seeded_power_ideal(degrees, salt, num_vars=num_vars)
    alg = ideal.algebra
    forms = [form for form, _ in ideal.generators]
    first, second = forms[0].coeffs, forms[1].coeffs
    probes = list(ideal.generators) + [(form, k) for form in forms]
    probes += [
        (linear_form([a - 2 * b for a, b in zip(first, second)]), k),
        (linear_form([Fraction(a, 3) for a in first]), k),
    ]
    probes += [(form, k) for form in seeded_forms(num_vars, 2, salt, 1)]
    for g in probes:
        assert dict(alg._rewrite(g)) == dict(alg._rewrite(expand_power(*g))), g


def test_a_leftover_power_is_expanded_on_its_support_alone(monkeypatch):
    # x^2 and y^2 pick two of 200 coordinates and (x + y)^2 is left over:
    # it is expanded over the one standard monomial xy, not over the 20,000
    # degree-2 monomials of the other coordinates
    enumerated = []
    original = quotient.exponent_vectors

    def counting(*args):
        got = list(original(*args))
        enumerated.extend(got)
        return iter(got)

    monkeypatch.setattr(quotient, "exponent_vectors", counting)
    n = 200
    x, y, x_plus_y = (linear_form(c + [0] * (n - 2)) for c in ([1, 0], [0, 1], [1, 1]))
    alg = GradedIdeal.from_powers([(x, 2), (y, 2), (x_plus_y, 2)]).algebra
    assert alg._others == ((2, ((1, 1) + (0,) * (n - 2),), (1,)),)
    assert len(enumerated) == 1


@pytest.mark.parametrize("num_vars, bounds", [
    (4, (4, 4, 4, 4)),
    (4, (1, 4, 4, 4)),
    (3, (2, 3, None)),
    (3, (2, None, None)),
    (2, (None, None)),
])
def test_the_shared_tables_list_the_standard_monomials_in_column_order(num_vars, bounds):
    def code(u, weights):
        return sum(a * w for a, w in zip(u, weights))

    tables = [quotient.standard_table(bounds, m) for m in range(9)]
    for m, table in enumerate(tables):
        assert table.exponents == tuple(exponent_vectors(num_vars, m, bounds))
        assert table.codes == tuple(code(u, table.weights) for u in table.exponents)
        # each code's image in a piece ranked whole is its column, weight 1
        assert table.images == {c: ((j, 1),) for j, c in enumerate(table.codes)}
        assert len(table.images) == len(table.exponents)
        # under the weights of degree m, a product of standard monomials
        # lands on a column exactly when it is standard, and on its own
        for d in range(m + 1):
            for s in tables[m - d].exponents:
                for u in tables[d].exponents:
                    product = tuple(a + b for a, b in zip(s, u))
                    image = table.images.get(code(s, table.weights) + code(u, table.weights))
                    want = ((table.exponents.index(product), 1),) if product in table.exponents else None
                    assert image == want


def test_the_shared_tables_stay_within_their_bound():
    quotient.standard_table.cache_clear()
    run_random_trials(TrialConfig(count=10, seed=5))
    info = quotient.standard_table.cache_info()
    assert info.maxsize == quotient.STANDARD_TABLES
    assert info.misses > info.maxsize  # the sweep asked for more tables than are kept
    assert info.currsize == info.maxsize


# -- the frame, and one set of pieces per presentation ---------------------------


def _counting_pieces(monkeypatch) -> list[int]:
    computed: list[int] = []
    # rows are built once per computed piece
    original = QuotientAlgebra.spanning_rows

    def counting(self, m):
        computed.append(m)
        return original(self, m)

    monkeypatch.setattr(QuotientAlgebra, "spanning_rows", counting)
    return computed


def test_five_general_quartics_share_one_presentation(monkeypatch):
    # n + 1 general forms are a projective frame: after the frame scaling
    # every draw has the same rewritten generators, so the second ideal's
    # Hilbert function is read from the first one's pieces
    computed = _counting_pieces(monkeypatch)
    first, second = (seeded_power_ideal((4,) * 5, seed=seed, num_vars=4).algebra for seed in (3, 4))
    assert first.hilbert_function() == (1, 4, 10, 20, 30, 36, 34, 20)
    assert computed
    computed.clear()
    assert second.hilbert_function() == first.hilbert_function()
    assert computed == []
    # the leftover quartic is (y_1 + ... + y_4)^4, made primitive
    assert second._others == first._others
    assert max(c for _, _, coeffs in first._others for c in coeffs) == 12


def test_a_leftover_power_on_one_coordinate_is_not_the_frame(capsys):
    powers = [([1, 0, 0], 2), ([2, 0, 0], 3), ([0, 1, 0], 2), ([0, 0, 1], 2)]
    alg = GradedIdeal.from_powers((linear_form(c), k) for c, k in powers).algebra
    # (2x)^3 pushes to a multiple of y_1 alone: no coordinate is scaled, and
    # the power lies inside the monomial part
    assert alg._substitution == [[(0, 1)], [(1, 1)], [(2, 1)]]
    assert alg._others == ()
    description = {"variables": 3, "powers": [{"form": c, "power": k} for c, k in powers]}
    assert cli.main(["hilbert", json.dumps(description)]) == 0
    assert "1 3 3 1" in capsys.readouterr().out


def test_four_quartics_in_a_hyperplane_match_the_dense_oracle():
    # the fourth form depends on the first three, so it is the frame while
    # the fifth picks the last coordinate; the frame scales three
    # coordinates and leaves the fourth alone
    plane = [(3, -1, 2), (1, 4, -2), (-2, 1, 5), (2, -3, 5)]
    fifth = (1, -3, 2, 7)
    alg = powers_ideal(*(((*form, 0), 4) for form in plane), (fifth, 4)).algebra
    assert alg._bounds == (4, 4, 4, 4)
    frame, last = (quotient.push_form(c, alg._substitution, 4) for c in ((2, -3, 5, 0), fifth))
    assert frame[3] == 0 and frame[0] == frame[1] == frame[2] != 0
    assert last[:3] == [0, 0, 0]
    # x, y, z and the fifth form are coordinates, so the quotient is the
    # dense oracle's quotient by the four plane quartics in x, y, z, tensored
    # with k[t] / (t^4)
    cut = naive_hilbert([dict_pow(dict_linear(form), 4) for form in plane], [4] * 4, 3, 12)
    expected = [sum(cut[m - i] for i in range(4) if 0 <= m - i < len(cut)) for m in range(len(cut) + 3)]
    assert alg.hilbert_function() == tuple(expected)


def test_the_shared_pieces_stay_within_their_bound():
    x = linear_form([1])
    for k in range(1, quotient.STANDARD_TABLES + 11):
        GradedIdeal.from_powers([(x, k)]).algebra.hilbert_function()
    info = quotient.shared_pieces.cache_info()
    assert info.maxsize == quotient.STANDARD_TABLES
    assert info.misses == quotient.STANDARD_TABLES + 10
    assert info.currsize == quotient.STANDARD_TABLES


# -- pieces ranked in the shared cokernel of the framed power ------------------


def _assert_every_piece_matches_all_its_rows(alg) -> list[int]:
    """Each piece up to the first zero one is the standard monomials less the
    rank of all its rows, by the Fraction oracle; returns the width of each
    cokernel used, by degree."""
    sizes = []
    m = 0
    while True:
        piece = alg.piece(m)
        assert piece == len(quotient.standard_table(alg._bounds, m).exponents) - frac_rank(alg.spanning_rows(m))
        if m in alg._cokernels:
            sizes.append(alg._cokernels[m][0])
        if piece == 0:
            return sizes
        m += 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(2, 4), min_size=n + 2, max_size=n + 4))
    ),
    st.integers(min_value=0, max_value=10**6),
)
def test_pieces_ranked_in_a_cokernel_match_the_oracle(shape, seed):
    num_vars, exponents = shape
    alg = seeded_power_ideal(exponents, seed=seed, num_vars=num_vars).algebra
    assume(2 <= len(alg._others) <= 4 and alg._cokernels is not None)
    # every piece from the framed power's degree on is ranked in a cokernel
    assert _assert_every_piece_matches_all_its_rows(alg)


def test_an_algebra_with_no_framed_power_ranks_its_pieces_whole(monkeypatch):
    # three coordinate quintics and two quartic monomials: no power is left
    # to frame, so nothing shares a cokernel with it, and none is computed
    computed = []
    cokernel = IntRowBasis.cokernel

    def counted(basis):
        computed.append(basis.ncols)
        return cokernel(basis)

    monkeypatch.setattr(IntRowBasis, "cokernel", counted)
    quintics = powers_ideal(((1, 0, 0), 5), ((0, 1, 0), 5), ((0, 0, 1), 5))
    monomials = tuple(GradedPoly(3, 4, [(e, 1)]) for e in ((2, 1, 1), (1, 2, 1)))
    alg = GradedIdeal(3, quintics.generators + monomials).algebra
    assert len(alg._others) == 2
    assert alg._cokernels is None
    assert alg.hilbert_function() == (1, 3, 6, 10, 13, 13, 10, 6, 3)
    assert computed == []
    assert quotient.shared_cokernels.cache_info().currsize == 0


def test_the_fourvar_adjoined_pieces_are_ranked_in_the_framed_power_s_cokernel():
    # I + (l) for five general quartics: l and three quartics are coordinates,
    # the framed quartic (y_1 + ... + y_4)^4 comes first and the fifth
    # quartic last.  The framed quartic's cokernel has 11, 9, 4 and 0
    # coordinates in degrees 4-7, against 12, 12, 10 and 6 standard monomials.
    ideal = seeded_power_ideal([4] * 5, seed=45, num_vars=4)
    alg = ideal.algebra.adjoined((seeded_forms(4, 1, seed=46)[0], 1))
    assert alg._bounds == (1, 4, 4, 4)
    assert [len(exps) for _, exps, _ in alg._others] == [12, 12]
    assert alg._others[0] == ideal.algebra.adjoined((seeded_forms(4, 1, seed=47)[0], 1))._others[0]
    assert [alg.piece(m) for m in range(4, 8)] == [10, 6, 1, 0]
    for m in range(4, 8):
        assert alg.piece(m) == len(quotient.standard_table(alg._bounds, m).exponents) - frac_rank(alg.spanning_rows(m))
    assert [alg._cokernels[m][0] for m in range(4, 8)] == [11, 9, 4, 0]
    degree_six = alg._cokernels[6][1].values()
    assert sum(map(len, degree_six)) == 20
    assert max(abs(w).bit_length() for pairs in degree_six for _, w in pairs) <= 4


def test_a_big_piece_is_ranked_in_the_cokernel_with_its_screen(monkeypatch):
    # seven general quartics in four variables: four are coordinates, and the
    # framed quartic comes first of the three that leave rows.  Every piece
    # from degree 4 on is ranked in its cokernel, whatever its size; the
    # projected rows of degrees 6 and 7, at or above NUMPY_CELLS entries,
    # are screened mod p like any other matrix
    screened = []
    real = linalg.rank_mod_prime

    def counted(rows, ncols):
        screened.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "rank_mod_prime", counted)
    alg = seeded_power_ideal([4] * 7, seed=45, num_vars=4).algebra
    assert [degree for degree, _, _ in alg._others] == [4, 4, 4]
    assert alg.hilbert_function() == (1, 4, 10, 20, 28, 28, 14)
    assert screened == [(20, 34), (40, 20)]
    assert [alg._cokernels[m][0] for m in range(4, 8)] == [30, 36, 34, 20]
    for m in range(8):
        rows = alg.spanning_rows(m)
        ncols = len(quotient.standard_table(alg._bounds, m).exponents)
        assert alg.piece(m) == ncols - frac_rank(rows)
        if m in (6, 7):
            assert len(rows) * ncols >= linalg.NUMPY_CELLS
