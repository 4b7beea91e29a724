"""Maximal-rank checks: direct elimination against the coordinate-matrix oracle."""

from __future__ import annotations

import hashlib
from functools import cache
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import combine, expand_power, expanded, powers_ideal, seeded_forms, seeded_power_ideal, times
from oracles import (
    dict_from_graded,
    fat_point_rank,
    frac_rank,
    general_on,
    naive_best_of_attempts,
    naive_hilbert,
    naive_ideal_dim,
    naive_membership,
    naive_multiplication_rank,
)
from wlpcheck import (
    CheckConfig,
    GenericityError,
    GradedIdeal,
    lefschetz,
    linear_form,
    quotient,
    slp_check,
    wlp_check,
)
from wlpcheck.lefschetz import multiplication_rank
from wlpcheck.linalg import FAST_PRIME, IntRowBasis
from wlpcheck.poly import GradedPoly, basis_size
from wlpcheck.quotient import QuotientAlgebra, standard_table
from wlpcheck.rng import TrialConfig, distinct_forms, stream, witness_forms
from wlpcheck.trials import random_power_ideal, wlp_trial

SQUARES = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))
FOUR_CUBES = powers_ideal(
    ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 3)
)
CUBES = powers_ideal(((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3))
QUINTICS = GradedIdeal(
    3,
    powers_ideal(((1, 0, 0), 5), ((0, 1, 0), 5), ((0, 0, 1), 5)).generators
    + (GradedPoly.monomial(3, (2, 1, 1)), GradedPoly.monomial(3, (1, 2, 1))),
)
# five general quartics in four variables, drawn as the ``fourvar`` benchmark draws them
FOURVAR = TrialConfig(num_vars=4, min_degree=4, max_degree=4, min_generators=5, max_generators=5)


# -- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(seed=1, bound=0, attempts=3)
    with pytest.raises(ValueError):
        CheckConfig(seed=1, bound=10, attempts=0)
    # one 64-bit draw must cover the 2B + 1 values of [-B, B]
    for make in (CheckConfig, TrialConfig):
        with pytest.raises(ValueError, match="bound must be at most 2"):
            make(bound=2**63)
    cfg = CheckConfig()
    assert cfg.seed == 20100601
    assert cfg.bound == 100
    assert cfg.attempts == 5


def test_sampler_avoids_and_exhausts():
    first, second = islice(distinct_forms(stream(3, 0), 3, bound=5), 2)
    assert not first.proportional_to(second)

    # in two variables with bound 1 there are only four directions
    taken = list(distinct_forms(stream(3, 1), 2, bound=1))
    assert len(taken) == 4
    assert not any(f.is_zero for f in taken)
    assert not any(f.proportional_to(g) for i, f in enumerate(taken) for g in taken[:i])


@pytest.mark.parametrize("check", [wlp_check, slp_check])
def test_an_empty_witness_stream_is_a_genericity_failure(monkeypatch, check):
    monkeypatch.setattr(lefschetz, "witness_forms", lambda config, num_vars: iter(()))
    with pytest.raises(GenericityError, match="could not sample a linear form within 256 tries"):
        check(SQUARES, CheckConfig(bound=1))


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
    report = wlp_check(QUINTICS)
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
    h = combine((1, expand_power(linear_form([1, 2, 3]), 2)), (1, GradedPoly.monomial(3, (0, 1, 1))))
    ideal = GradedIdeal(3, powers.generators + (times(x, h), times(y, h)))
    alg = ideal.algebra
    rows = alg.spanning_rows(4)
    assert frac_rank(rows) == len(rows) - 1 < len(rows[0])
    assert basis_size(3, 4) - alg.piece(4) == naive_ideal_dim(
        [dict_from_graded(g) for g in expanded(ideal)], list(ideal.generator_degrees), 3, 4
    )
    ell = seeded_forms(3, 1, seed=75, index=0)[0]
    _assert_ranks_match_oracle(ideal, _every_power(ell, alg.socle_degree()))


def test_rank_of_a_non_power_multiplier():
    ideal = seeded_power_ideal([2, 3, 3, 2], seed=76, index=0, num_vars=3)
    a, b = seeded_forms(3, 2, seed=77, index=0)
    quadric = combine((1, times(a.as_poly(), b.as_poly())), (1, GradedPoly.monomial(3, (0, 0, 2))))
    cubic = combine((1, times(quadric, a.as_poly())), (-1, expand_power(b, 3)))
    _assert_ranks_match_oracle(ideal, [(quadric, [quadric]), (cubic, [cubic])])


def _fractional_ideals():
    # Normalized coordinates take integer rows of the power forms, so a form
    # with denominators rescales its coordinate y_i; every answer must still
    # be the one of the original coordinates.
    three = powers_ideal(
        (("1/2", 0, "2/3"), 3), ((0, "3/4", 1), 2), ((1, 1, "-5/3"), 3), (("1/3", "1/5", "1/7"), 2)
    )
    four = powers_ideal(
        (("1/2", 1, 0, 0), 2), ((0, "2/3", 1, 0), 2), ((0, 0, "3/5", 1), 2),
        ((1, 0, 0, "-7/4"), 2), (("1/3", "1/2", 1, "1/5"), 2),
    )
    powers = powers_ideal((("1/2", 1, 0), 2), ((0, "2/3", 1), 3), ((1, 0, "1/5"), 2))
    cubic = GradedPoly(3, 3, [((2, 1, 0), "3/2"), ((0, 1, 2), "-1/3"), ((1, 1, 1), "2/7")])
    polynomial = GradedIdeal(3, powers.generators + (cubic,))
    plane = powers_ideal((("1/2", 0, 1), 2), ((0, "1/3", 1), 2))
    expansion = GradedIdeal(3, plane.generators + (expand_power(linear_form([1, "-1/2", "1/4"]), 3),))
    # the squares' forms are dependent, so the fractional one is rewritten, not chosen
    dependent = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), (("1/2", 1, 0), 2), ((0, 0, 1), 3))
    return [three, four, polynomial, expansion, dependent]


@pytest.mark.parametrize(
    "ideal",
    _fractional_ideals(),
    ids=["three-variables", "four-variables", "polynomial", "expansion", "dependent"],
)
def test_fractional_coefficients_match_the_oracles(ideal):
    n = ideal.num_vars
    gen_dicts = [dict_from_graded(gen) for gen in expanded(ideal)]
    gen_degrees = list(ideal.generator_degrees)
    alg = ideal.algebra
    hf = alg.hilbert_function()
    assert hf == naive_hilbert(gen_dicts, gen_degrees, n, n * max(gen_degrees) + 1)
    ell = linear_form(["2/3", "-1/4", "5/2", "1/6"][:n])
    _assert_ranks_match_oracle(ideal, _every_power(ell, 2))
    probes = [expand_power(ell, k) for k in range(1, len(hf) + 1)]
    for g in expanded(ideal):
        probes += [g, times(g, ell.as_poly()), combine((1, g), (1, expand_power(ell, g.degree)))]
    for f in probes:
        expected = naive_membership(gen_dicts, gen_degrees, n, dict_from_graded(f), f.degree)
        assert alg.contains(f) == expected, f


def test_complete_intersections_of_general_powers_have_the_slp():
    # monomial complete intersections have the SLP in characteristic 0
    # (Stanley 1980; Watanabe), and a change of coordinates keeps it
    for exponents, num_vars in (((2, 3, 4), 3), ((2, 2, 3, 3), 4)):
        ideal = seeded_power_ideal(exponents, seed=78, index=0, num_vars=num_vars)
        report = slp_check(ideal)
        assert report.holds, report.failures
        assert {r.power for r in report.records} == set(range(1, sum(exponents) - num_vars + 1))


# The four-variable fixed point: the rank tables of wlp_check on the first
# 20 ideals of five general quartics, drawn as the ``fourvar`` benchmark
# draws them, and of slp_check on the first one.  Its powers l^k with k > 4
# are adjoined as powers that pick no coordinate, so they are rewritten,
# not counted.  A change that moves the digest changes reported ranks and
# must say why.  The whole-report digest also pins each report's verdict,
# witness form, attempt count and Hilbert function, so a change in which
# attempt is reported moves it even when the tables agree.
FOUR_VARIABLE_TABLES = "3c51b34b7f3d3ddf085c580f6169f0be65adb9020f4b170bca13ee1400413a64"
FOUR_VARIABLE_REPORTS = "a43452525f16f5c751ff0f0a40eef5c7fd754b9dc5aa4780d05d2330f6aa7bb2"


@cache
def _four_variable_wlp_checks():
    """(ideal, check config, wlp_check report) for the first 20 ``fourvar`` ideals."""
    checks = []
    for i in range(20):
        draws = stream(1, i)
        ideal = random_power_ideal(draws, FOURVAR)
        check = FOURVAR.check_config(seed=draws.next_uint64())
        checks.append((ideal, check, wlp_check(ideal, check)))
    return checks


def test_four_variable_rank_tables_are_unchanged():
    reports = []
    for i, (ideal, check, report) in enumerate(_four_variable_wlp_checks()):
        reports.append(report)
        if i == 0:
            reports.append(slp_check(ideal, check))
    assert max(r.power for r in reports[1].records) > 4
    tables = [[(r.power, r.degree, r.source_dim, r.target_dim, r.rank) for r in rep.records] for rep in reports]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == FOUR_VARIABLE_TABLES
    whole = [
        (rep.holds, [str(c) for c in rep.form.coeffs], rep.attempts_used, list(rep.hilbert),
         [tuple(r) for r in rep.records])
        for rep in reports
    ]
    assert hashlib.sha256(repr(whole).encode()).hexdigest() == FOUR_VARIABLE_REPORTS


# -- four variables: every rank against fat points in the plane -----------------


def test_four_variable_wlp_ranks_match_fat_points():
    # the 20 fixed-point ideals of five general quartics, and one trial of
    # five general d-th powers for each row of the README table
    checked = [(ideal, report) for ideal, _, report in _four_variable_wlp_checks()]
    for d in range(3, 9):
        config = TrialConfig(count=1, num_vars=4, min_degree=d, max_degree=d, min_generators=5, max_generators=5)
        checked.append(wlp_trial(0, config))
    for ideal, report in checked:
        forms, exponents = zip(*ideal.generators)
        assert len(forms) == 5
        assert general_on([form.coeffs for form in forms], report.form.coeffs)
        for r in report.records:
            assert r.rank == fat_point_rank(exponents, r.degree + 1, r.target_dim), r


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=4), min_size=5, max_size=7), st.integers(min_value=0, max_value=10_000))
def test_five_to_seven_mixed_powers_in_four_variables_match_fat_points(exponents, salt):
    *forms, ell = seeded_forms(4, len(exponents) + 1, salt)
    # a special plane makes the cut points special, and fat points there
    # need more than Cremona reduction
    assume(general_on([form.coeffs for form in forms], ell.coeffs))
    alg = GradedIdeal.from_powers(zip(forms, exponents)).algebra
    assume(alg.is_artinian())
    hf = alg.hilbert_function()
    for m in range(len(hf) - 1):
        assert multiplication_rank(alg, (ell, 1), m) == fat_point_rank(exponents, m + 1, hf[m + 1])


def _general_trial_matches_fat_points(generators, power, seed):
    config = TrialConfig(
        seed=seed, num_vars=4, min_degree=power, max_degree=power, min_generators=generators, max_generators=generators
    )
    ideal, report = wlp_trial(0, config)
    forms, exponents = zip(*ideal.generators)
    if not general_on([form.coeffs for form in forms], report.form.coeffs):
        pytest.skip(f"the witness plane cuts the {generators} forms in special position")
    for r in report.records:
        assert r.rank == fat_point_rank(exponents, r.degree + 1, r.target_dim), r


@pytest.mark.parametrize("power", [4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_six_general_powers_in_four_variables_match_fat_points(power, seed):
    # six points are where general position first asks for more than no
    # three on a line: the six must not lie on a conic either
    _general_trial_matches_fat_points(6, power, seed)


@pytest.mark.parametrize("power", [4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seven_general_powers_in_four_variables_match_fat_points(power, seed):
    # seven points: no six of them on a conic, and the quadratic
    # transformations of the reduction keep that
    _general_trial_matches_fat_points(7, power, seed)


def test_six_points_on_a_conic_are_not_general():
    # on the plane w = 0 the forms cut the points (x, y, z), and x^2 - yz
    # vanishes on all six: a smooth conic, so no three are on a line
    on_conic = [(1, 1, 1, 0), (2, 4, 1, 0), (3, 9, 1, 0), (2, 1, 4, 0), (6, 4, 9, 0), (-1, 1, 1, 0)]
    w = (0, 0, 0, 1)
    assert general_on(on_conic[:5], w)
    assert not general_on(on_conic, w)
    assert general_on(on_conic[:5] + [(1, 2, 3, 0)], w)
    assert not general_on(on_conic[:4] + [(1, 2, 3, 0), (2, 4, 6, 0)], w)  # one point twice


# -- best of attempts: the cutoff against the plain oracle -----------------------


def _plain(report):
    return (report.holds, report.attempts_used, list(report.form.coeffs), report.hilbert,
            [tuple(r) for r in report.records])


def _oracle(ideal, forms, kind):
    return naive_best_of_attempts(
        [dict_from_graded(g) for g in expanded(ideal)], list(ideal.generator_degrees), ideal.num_vars,
        [f.coeffs for f in forms], kind == "slp",
    )


CHECKS = {"wlp": wlp_check, "slp": slp_check}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=3), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(sorted(CHECKS)),
)
def test_best_of_attempts_matches_the_plain_oracle(degrees, salt, bound, attempts, kind):
    # small coefficients, in the ideal's forms and in the sampled ones, make
    # special forms common, so later attempts are abandoned, tie or hold
    ideal = GradedIdeal.from_powers(zip(seeded_forms(3, len(degrees), seed=81, index=salt, bound=1), degrees))
    if not ideal.algebra.is_artinian():
        return
    config = CheckConfig(seed=salt, bound=bound, attempts=attempts)
    sampled = list(islice(witness_forms(config, 3), attempts))
    assert _plain(CHECKS[kind](ideal, config)) == _oracle(ideal, sampled, kind)


def _sample(monkeypatch, *coeffs):
    """Make the checks draw exactly these forms, in this order."""
    forms = [linear_form(c) for c in coeffs]
    monkeypatch.setattr(lefschetz, "witness_forms", lambda config, num_vars: iter(forms))
    return forms


def test_a_general_form_after_a_special_one_holds(monkeypatch):
    # x misses from degree 1 to 2; a form with no zero coefficient does not
    forms = _sample(monkeypatch, (1, 0, 0), (3, -2, 5))
    report = wlp_check(SQUARES, CheckConfig(attempts=2))
    assert report.holds
    assert report.attempts_used == 2
    assert report.form == forms[1]
    assert _plain(report) == _oracle(SQUARES, forms, "wlp")


def test_a_later_form_with_fewer_misses_is_reported(monkeypatch):
    # misses in degrees 3-7, then 3-5, then only 4, a tie, and 3-7 again:
    # the third form is reported, not the tie after it
    forms = _sample(monkeypatch, (1, 0, 0), (1, 1, 0), (2, -3, 5), (3, 1, -2), (0, 0, 1))
    report = wlp_check(QUINTICS, CheckConfig(attempts=5))
    assert not report.holds
    assert report.form == forms[2]
    assert report.attempts_used == 5
    assert report.failures == ((1, 4),)
    assert _plain(report) == _oracle(QUINTICS, forms, "wlp")


def test_a_shortfall_mod_p_is_not_a_miss(monkeypatch):
    # x + y misses, so x + y + pz is ranked first where it missed.  Mod p
    # that form is x + y, and some of its pieces fall short mod p (the cube
    # from degree 1, for one); over the rationals every power has maximal rank
    forms = _sample(monkeypatch, (1, 1, 0), (1, 1, FAST_PRIME))
    report = slp_check(CUBES, CheckConfig(attempts=2))
    assert report.holds
    assert report.attempts_used == 2
    assert _plain(report) == _oracle(CUBES, forms, "slp")


def test_every_adjoined_algebra_shares_the_framed_power_s_cokernels(monkeypatch):
    # the five I + (l) of one fourvar check have the same bounds and the same
    # framed power first, so they share one dict of cokernels, and each
    # degree's cokernel is computed once
    computed = []
    cokernel = IntRowBasis.cokernel

    def counted(basis):
        computed.append(basis.ncols)
        return cokernel(basis)

    monkeypatch.setattr(IntRowBasis, "cokernel", counted)
    draws = stream(1, 0)
    ideal = random_power_ideal(draws, FOURVAR)
    report = wlp_check(ideal, FOURVAR.check_config(seed=draws.next_uint64()))
    assert report.attempts_used == 5
    info = quotient.shared_cokernels.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    assert info.maxsize == quotient.STANDARD_TABLES
    # degrees 4-7 of the first I + (l), each once (below degree 4 the framed
    # quartic leaves no rows, and there is nothing to project out)
    assert computed == [len(standard_table((1, 4, 4, 4), m).exponents) for m in range(4, 8)]


def test_a_losing_form_is_ranked_only_where_the_best_one_missed(monkeypatch):
    # every form misses once, at (1, 5), so each form after the first is
    # abandoned at its first rank, one degree-6 piece of its I + (l)
    computed = []  # rows are built once per computed piece
    cokernels = []  # and the framed quartic's once per degree, for every I + (l)
    compute = QuotientAlgebra._rows

    def counted(alg, m, others, target, width):
        if others == alg._others[:1] != alg._others:
            cokernels.append(m)
        else:
            computed.append((alg.generators, m))
        return compute(alg, m, others, target, width)

    monkeypatch.setattr(QuotientAlgebra, "_rows", counted)
    draws = stream(1, 0)
    ideal = random_power_ideal(draws, FOURVAR)  # its Hilbert function is computed here
    report = wlp_check(ideal, FOURVAR.check_config(seed=draws.next_uint64()))
    assert report.failures == ((1, 5),)
    assert report.attempts_used == 5
    degrees = {}  # the degrees computed in each algebra: I, then each I + (l)
    for generators, m in computed:
        degrees.setdefault(generators, []).append(m)
    # the first I + (l) computes degrees 1-7, but the framed power's rows
    # span the degree-7 piece, so its cokernel is empty and the last
    # quartic's rows there are never built
    assert list(degrees.values()) == [list(range(9)), list(range(1, 7)), [6], [6], [6], [6]]
    assert len(computed) == 19
    assert cokernels == list(range(4, 8))
