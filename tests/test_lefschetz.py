"""Maximal-rank checks: direct elimination against the coordinate-matrix oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expanded, powers_ideal, seeded_forms, seeded_power_ideal
from oracles import dict_from_graded, frac_rank, naive_ideal_dim, naive_multiplication_rank
from wlpcheck import (
    CheckConfig,
    GenericityError,
    GradedIdeal,
    linear_form,
    slp_check,
    wlp_check,
)
from wlpcheck.lefschetz import multiplication_rank, sample_linear_form
from wlpcheck.poly import GradedPoly, expand_power
from wlpcheck.rng import stream

SQUARES = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))
FOUR_CUBES = powers_ideal(
    ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 3)
)


# -- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(seed=1, bound=0, attempts=3)
    with pytest.raises(ValueError):
        CheckConfig(seed=1, bound=10, attempts=0)
    cfg = CheckConfig()
    assert cfg.seed == 20100601
    assert cfg.bound == 100
    assert cfg.attempts == 5


def test_sampler_avoids_and_exhausts():
    rng = stream(3, 0)
    first = sample_linear_form(rng, 3, bound=5)
    second = sample_linear_form(rng, 3, bound=5, avoid=(first,))
    assert not first.proportional_to(second)

    # in two variables with bound 1 there are only four directions
    rng = stream(3, 1)
    taken = []
    for _ in range(4):
        taken.append(sample_linear_form(rng, 2, bound=1, avoid=tuple(taken)))
    with pytest.raises(GenericityError):
        sample_linear_form(rng, 2, bound=1, avoid=tuple(taken))


# -- frozen examples ----------------------------------------------------------


def test_squares_have_both_properties():
    wlp = wlp_check(SQUARES)
    assert wlp.holds
    assert wlp.hilbert == (1, 3, 3, 1)
    assert wlp.failures == ()
    assert [(r.degree, r.source_dim, r.target_dim, r.rank) for r in wlp.records] == [
        (0, 1, 3, 1),
        (1, 3, 3, 3),
        (2, 3, 1, 1),
    ]
    assert wlp.attempts_used == 1

    slp = slp_check(SQUARES)
    assert slp.holds
    powers_seen = sorted({r.power for r in slp.records})
    assert powers_seen == [1, 2, 3]


def test_four_cubes_slp_fails_only_at_cube_of_witness():
    report = slp_check(FOUR_CUBES)
    assert not report.holds
    assert report.hilbert == (1, 3, 6, 6, 3)
    assert report.failures == ((3, 1),)
    bad = [r for r in report.records if not r.maximal]
    assert len(bad) == 1
    assert (bad[0].power, bad[0].degree) == (3, 1)
    assert bad[0].source_dim == 3
    assert bad[0].target_dim == 3
    assert bad[0].rank == 2

    # yet the weak property holds
    assert wlp_check(FOUR_CUBES).holds


def test_mixed_quintics_fail_exactly_once():
    ideal = powers_ideal(
        ((1, 0, 0), 5), ((0, 1, 0), 5), ((0, 0, 1), 5)
    )
    gens = ideal.generators + (
        GradedPoly.monomial(3, (2, 1, 1)),
        GradedPoly.monomial(3, (1, 2, 1)),
    )
    quintics = GradedIdeal(3, gens)

    report = wlp_check(quintics)
    assert not report.holds
    assert report.hilbert == (1, 3, 6, 10, 13, 13, 10, 6, 3)
    assert report.failures == ((1, 4),)
    bad = [r for r in report.records if not r.maximal][0]
    assert (bad.source_dim, bad.target_dim, bad.rank) == (13, 13, 12)


def test_reports_are_reproducible():
    config = CheckConfig(seed=77, bound=30, attempts=3)
    a = wlp_check(FOUR_CUBES, config)
    b = wlp_check(FOUR_CUBES, config)
    assert a == b


def test_degree_one_multiplier_reproduces_the_wlp_table():
    config = CheckConfig(seed=5, bound=20, attempts=2)
    report = wlp_check(SQUARES, config)
    alg = SQUARES.algebra
    g = report.form.as_poly()
    for record in report.records:
        assert multiplication_rank(alg, g, record.degree) == record.rank
        assert multiplication_rank(alg, (report.form, 1), record.degree) == record.rank


# -- oracle agreement -----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=4),
    st.integers(min_value=0, max_value=800),
    st.integers(min_value=1, max_value=2),
)
def test_multiplication_rank_matches_coordinate_oracle(degrees, salt, g_degree):
    ideal = seeded_power_ideal(degrees, seed=53, index=salt, num_vars=3)
    alg = ideal.algebra
    if not alg.is_artinian():
        return
    g_form = seeded_forms(3, 1, seed=54, index=salt)[0]
    g = expand_power(g_form, g_degree)
    gen_dicts = [dict_from_graded(gen) for gen in expanded(ideal)]
    gen_degrees = list(ideal.generator_degrees)
    top = alg.socle_degree()
    for m in range(0, top + 1):
        naive = naive_multiplication_rank(
            gen_dicts, gen_degrees, 3, dict_from_graded(g), g_degree, m
        )
        assert multiplication_rank(alg, g, m) == naive
        assert multiplication_rank(alg, (g_form, g_degree), m) == naive


def test_zero_map_edges():
    alg = SQUARES.algebra
    ell = linear_form([1, 1, 1]).as_poly()
    # target beyond the socle: rank 0
    assert multiplication_rank(alg, ell, 3) == 0
    assert multiplication_rank(alg, (linear_form([1, 1, 1]), 1), 3) == 0
    g3 = expand_power(linear_form([1, 2, 1]), 3)
    assert multiplication_rank(alg, g3, 1) == 0
    assert multiplication_rank(alg, (linear_form([1, 2, 1]), 3), 1) == 0
    # the zero form multiplies everything to zero
    assert multiplication_rank(alg, (linear_form([0, 0, 0]), 1), 1) == 0
    with pytest.raises(ValueError):
        multiplication_rank(alg, (linear_form([1, 1]), 1), 1)


@pytest.mark.parametrize(
    "degrees, special",
    [
        ((2, 2, 3, 3, 2), False),
        ((3, 2, 2, 2, 2), False),
        ((2, 3, 2, 3, 3, 2), False),
        ((2, 2, 2, 2, 2), True),
        ((3, 2, 2, 2, 2), True),
    ],
)
def test_four_variable_ranks_match_naive_oracle(degrees, special):
    # non-coordinate forms, so the algebra's coordinates differ from the
    # original ones; the oracle never leaves the original coordinates.  A
    # special ideal's last form is the sum of the first two, a position
    # whose ranks differ from the general ones.
    forms = seeded_forms(4, len(degrees), seed=61, index=0)
    if special:
        forms[-1] = linear_form([a + b for a, b in zip(forms[0].coeffs, forms[1].coeffs)])
    ideal = GradedIdeal.from_powers(zip(forms, degrees))
    alg = ideal.algebra
    gen_dicts = [dict_from_graded(gen) for gen in expanded(ideal)]
    ell = seeded_forms(4, 1, seed=62, index=0)[0]
    top = alg.socle_degree()
    for k in range(1, top + 1):
        g = expand_power(ell, k)
        for m in range(top - k + 1):  # past the socle both sides are zero
            naive = naive_multiplication_rank(
                gen_dicts, list(degrees), 4, dict_from_graded(g), k, m
            )
            assert multiplication_rank(alg, g, m) == naive
            assert multiplication_rank(alg, (ell, k), m) == naive


# -- rank as a Hilbert-function difference: edge cases ---------------------------


def _assert_ranks_match_oracle(ideal, multipliers):
    """Every multiplier, in each of its spellings, against the naive oracle.

    ``multipliers`` lists (poly, spellings) pairs: the polynomial the oracle
    multiplies by, and the arguments ``multiplication_rank`` is given for it.
    """
    alg = ideal.algebra
    gen_dicts = [dict_from_graded(gen) for gen in expanded(ideal)]
    gen_degrees = list(ideal.generator_degrees)
    top = alg.socle_degree()
    for poly, spellings in multipliers:
        for m in range(top - poly.degree + 1):  # past the socle both sides are zero
            naive = naive_multiplication_rank(
                gen_dicts, gen_degrees, ideal.num_vars, dict_from_graded(poly), poly.degree, m
            )
            for g in spellings:
                assert multiplication_rank(alg, g, m) == naive, (g, m)


def _every_power(ell, top):
    return [(expand_power(ell, k), [(ell, k), expand_power(ell, k)]) for k in range(1, top + 1)]


def test_rank_when_ell_is_proportional_to_a_generator_form():
    # below the exponent ell is a coordinate and the generator's cube dies in
    # the monomial part; at the exponent the generator wins the tie and the
    # power of ell lies in the ideal
    ideal = seeded_power_ideal([3, 2, 3, 4], seed=71, index=0, num_vars=3)
    ell = linear_form([2 * c for c in ideal.generators[0][0].coeffs])
    _assert_ranks_match_oracle(ideal, _every_power(ell, ideal.algebra.socle_degree()))


def test_rank_when_k_ties_or_exceeds_every_exponent():
    # exponents (2, 2, 3): k = 2 and k = 3 tie with generator exponents, and
    # k = 4 is above all of them, so there ell is not a coordinate
    ideal = seeded_power_ideal([2, 2, 3], seed=72, index=0, num_vars=3)
    ell = seeded_forms(3, 1, seed=73, index=0)[0]
    top = ideal.algebra.socle_degree()
    assert top == 4
    _assert_ranks_match_oracle(ideal, _every_power(ell, top))


def test_rank_with_dependent_rows_in_a_non_full_degree():
    # x*h and y*h have the relation y*(x*h) = x*(y*h): in degree 4 their six
    # shifted rows have rank 5, fewer than the rows and than the columns, so
    # neither count may certify the rank
    powers = seeded_power_ideal([4, 4, 4], seed=74, index=0, num_vars=3)
    x, y = (GradedPoly.monomial(3, e) for e in ((1, 0, 0), (0, 1, 0)))
    h = expand_power(linear_form([1, 2, 3]), 2) + GradedPoly.monomial(3, (0, 1, 1))
    ideal = GradedIdeal(3, powers.generators + (x * h, y * h))
    alg = ideal.algebra
    rows = alg.spanning_rows(4)
    assert frac_rank(rows) == len(rows) - 1 < len(rows[0])
    assert alg.piece(4).ideal_rank == naive_ideal_dim(
        [dict_from_graded(g) for g in expanded(ideal)], list(ideal.generator_degrees), 3, 4
    )
    ell = seeded_forms(3, 1, seed=75, index=0)[0]
    _assert_ranks_match_oracle(ideal, _every_power(ell, alg.socle_degree()))


def test_rank_of_a_non_power_multiplier():
    ideal = seeded_power_ideal([2, 3, 3, 2], seed=76, index=0, num_vars=3)
    a, b = seeded_forms(3, 2, seed=77, index=0)
    quadric = a.as_poly() * b.as_poly() + GradedPoly.monomial(3, (0, 0, 2))
    cubic = quadric * a.as_poly() - expand_power(b, 3)
    _assert_ranks_match_oracle(ideal, [(quadric, [quadric]), (cubic, [cubic])])


def test_complete_intersections_of_general_powers_have_the_slp():
    # monomial complete intersections have the SLP in characteristic 0
    # (Stanley 1980; Watanabe), and a change of coordinates keeps it
    for exponents, num_vars in (((2, 3, 4), 3), ((2, 2, 3, 3), 4)):
        ideal = seeded_power_ideal(exponents, seed=78, index=0, num_vars=num_vars)
        report = slp_check(ideal)
        assert report.holds, report.failures
        assert {r.power for r in report.records} == set(range(1, sum(exponents) - num_vars + 1))
