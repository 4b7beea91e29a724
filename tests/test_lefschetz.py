"""Maximal-rank checks: direct elimination against the coordinate-matrix oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import powers_ideal, seeded_forms, seeded_power_ideal
from oracles import dict_from_graded, naive_multiplication_rank
from wlpcheck import (
    CheckConfig,
    GenericityError,
    GradedIdeal,
    algebra,
    linear_form,
    multiplication_rank,
    sample_linear_form,
    slp_check,
    wlp_check,
)
from wlpcheck.poly import expand_power
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
    from wlpcheck.poly import GradedPoly
    from wlpcheck.quotient import GradedIdeal

    gens = list(ideal.generators) + [
        GradedPoly.monomial(3, (2, 1, 1)),
        GradedPoly.monomial(3, (1, 2, 1)),
    ]
    parts = list(ideal.power_parts) + [None, None]
    quintics = GradedIdeal(3, tuple(gens), tuple(parts))

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
    alg = algebra(SQUARES)
    g = report.form.as_poly()
    for record in report.records:
        assert multiplication_rank(alg, g, record.degree) == record.rank


# -- oracle agreement -----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=4),
    st.integers(min_value=0, max_value=800),
    st.integers(min_value=1, max_value=2),
)
def test_multiplication_rank_matches_coordinate_oracle(degrees, salt, g_degree):
    ideal = seeded_power_ideal(degrees, seed=53, index=salt, num_vars=3)
    alg = algebra(ideal)
    if not alg.is_artinian():
        return
    g_form = seeded_forms(3, 1, seed=54, index=salt)[0]
    g = expand_power(g_form, g_degree)
    gen_dicts = [dict_from_graded(gen) for gen in ideal.generators]
    gen_degrees = list(ideal.generator_degrees)
    top = alg.socle_degree()
    for m in range(0, top + 1):
        ours = multiplication_rank(alg, g, m)
        naive = naive_multiplication_rank(
            gen_dicts, gen_degrees, 3, dict_from_graded(g), g_degree, m
        )
        assert ours == naive


def test_zero_map_edges():
    alg = algebra(SQUARES)
    ell = linear_form([1, 1, 1]).as_poly()
    # target beyond the socle: rank 0
    assert multiplication_rank(alg, ell, 3) == 0
    g3 = expand_power(linear_form([1, 2, 1]), 3)
    assert multiplication_rank(alg, g3, 1) == 0


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
    alg = algebra(ideal)
    gen_dicts = [dict_from_graded(gen) for gen in ideal.generators]
    ell = seeded_forms(4, 1, seed=62, index=0)[0]
    top = alg.socle_degree()
    for k in range(1, top + 1):
        g = expand_power(ell, k)
        for m in range(top - k + 1):  # past the socle both sides are zero
            naive = naive_multiplication_rank(
                gen_dicts, list(degrees), 4, dict_from_graded(g), k, m
            )
            assert multiplication_rank(alg, g, m) == naive
