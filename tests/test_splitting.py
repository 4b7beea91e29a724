"""Splitting types and the rank table predicted from them."""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import powers_ideal, seeded_forms, seeded_power_ideal
from wlpcheck import (
    CheckConfig,
    GenericityError,
    generic_splitting_type,
    linear_form,
    predict_wlp,
    predicted_splitting_type,
    splitting_type_at,
    wlp_check,
)
from wlpcheck import splitting
from wlpcheck.binary import binary_power_resolution
from wlpcheck.poly import GradedPoly
from wlpcheck.quotient import GradedIdeal
from wlpcheck.rng import witness_forms
from wlpcheck.splitting import (
    connecting_image_dim,
    restriction_h0,
    restriction_h1,
    syzygy_h2,
    syzygy_module_dim,
)

SQUARES = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))
FOUR_CUBES = powers_ideal(
    ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 3)
)
GOOD_FORM = linear_form([1, 2, 3])


def mixed_quintics():
    base = powers_ideal(((1, 0, 0), 5), ((0, 1, 0), 5), ((0, 0, 1), 5))
    return GradedIdeal(
        3,
        base.generators
        + (GradedPoly.monomial(3, (2, 1, 1)), GradedPoly.monomial(3, (1, 2, 1))),
    )


# -- cohomology-style dimension counts ----------------------------------------


def test_h0_h1_h2_frozen_values():
    # sections of a sum of line bundles of degrees m - b_j
    assert restriction_h0((3, 3), 4) == 4
    assert restriction_h0((3, 3), 2) == 0
    # dual count: h1 of the twist by m is sum of max(b - m - 1, 0)
    assert restriction_h1((3, 3), 1) == 2
    assert restriction_h1((3, 3), 2) == 0
    assert restriction_h1((4, 4, 4, 9), 4) == 4
    assert restriction_h1((4, 5), 3) == 1
    # plane count: sum of C(d - m - 1, 2)
    assert syzygy_h2((5, 5, 5, 4, 4), 4) == 0
    assert syzygy_h2((3, 3, 3, 9), 3) == 10
    assert syzygy_h2((3, 3, 3, 9), 4) == 6


def test_telescoping_identity():
    # h2(m) - h2(m+1) collapses to sum of max(d - m - 2, 0)
    for degrees in [(3, 3, 3, 9), (5, 5, 5, 4, 4), (2, 2, 2), (7, 3, 4)]:
        for m in range(0, 12):
            lhs = syzygy_h2(degrees, m) - syzygy_h2(degrees, m + 1)
            rhs = sum(max(d - m - 2, 0) for d in degrees)
            assert lhs == rhs


# -- predicted splitting types -------------------------------------------------


def test_predicted_splitting_frozen():
    assert predicted_splitting_type((2, 2, 2)).shifts == (3, 3)
    assert predicted_splitting_type((2, 2, 2)).restricted_socle == 1
    assert predicted_splitting_type((3, 3, 3)).shifts == (4, 5)
    assert predicted_splitting_type((3, 3, 3)).restricted_socle == 3
    assert predicted_splitting_type((3, 3, 3, 3)).shifts == (4, 4, 4)
    assert predicted_splitting_type((3, 3, 3, 3)).restricted_socle == 2
    # a redundant high power splits off at its own degree
    tail = predicted_splitting_type((3, 3, 3, 9))
    assert tail.shifts == (4, 5, 9)
    assert tail.restricted_socle == 3
    assert tail.tail == (9,)
    assert tail.gap == 5
    assert not tail.balanced


def test_splitting_classification_counts():
    st_obj = predicted_splitting_type((3, 3, 3))
    assert st_obj.low_count == 1  # one shift at socle + 1
    assert st_obj.high_count == 1  # one at socle + 2
    assert st_obj.gap == 1
    assert st_obj.balanced


# -- exact splitting on a line ---------------------------------------------------


def test_exact_splitting_at_a_good_form():
    assert splitting_type_at(SQUARES, GOOD_FORM).shifts == (3, 3)
    assert splitting_type_at(FOUR_CUBES, GOOD_FORM).shifts == (4, 4, 4)


def test_exact_splitting_with_tail():
    ideal = powers_ideal(
        ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 9)
    )
    result = splitting_type_at(ideal, GOOD_FORM)
    assert result.shifts == (4, 5, 9)
    assert result.restricted_socle == 3


def test_dead_generator_splits_off_at_its_own_degree():
    # restricting along x = 0 kills the generator x^2
    result = splitting_type_at(SQUARES, linear_form([1, 0, 0]))
    assert result.shifts == (2, 4)
    assert result.restricted_socle == 2


def test_splitting_requires_three_variables():
    binary = powers_ideal(((1, 0), 2), ((0, 1), 2))
    with pytest.raises(ValueError):
        splitting_type_at(binary, linear_form([1, 1]))


def test_predictions_require_three_variables():
    four = powers_ideal(*((tuple(int(i == j) for j in range(4)), 2) for i in range(4)))
    with pytest.raises(ValueError):
        predict_wlp(four, linear_form([1, 1, 1, 1]))


def test_generic_splitting_agrees_with_formula():
    stype, witness = generic_splitting_type(FOUR_CUBES, CheckConfig())
    assert stype.shifts == (4, 4, 4)
    assert not witness.is_zero


@pytest.mark.parametrize("hilberts, picked", [
    ([(1, 2, 1), (1, 2), (1, 3)], 1),  # padded with zeros, (1, 2) is below both others
    ([(1, 2, 1), (1, 1, 2)], None),  # neither is below the other
])
def test_the_least_restricted_hilbert_function_is_picked(monkeypatch, hilberts, picked):
    # the k-th sampled line restricts to hilberts[k], with splitting type k
    samples = iter(enumerate(hilberts))
    monkeypatch.setattr(splitting, "_splitting_at", lambda ideal, ell: next(samples))
    config = CheckConfig(attempts=len(hilberts))
    if picked is None:
        with pytest.raises(GenericityError):
            generic_splitting_type(SQUARES, config)
    else:
        forms = list(islice(witness_forms(config, 3), picked + 1))
        assert generic_splitting_type(SQUARES, config) == (picked, forms[picked])


def test_lines_that_kill_a_generator_are_passed_over(monkeypatch):
    # x = 0 and y = 0 each kill a square and agree on the type (2, 4); the
    # general third line restricts to a smaller algebra and is the one kept
    lines = [linear_form(c) for c in ((1, 0, 0), (0, 1, 0), (1, 2, 3))]
    monkeypatch.setattr(splitting, "witness_forms", lambda config, n: iter(lines))
    assert splitting_type_at(SQUARES, lines[1]).shifts == (2, 4)
    stype, witness = generic_splitting_type(SQUARES, CheckConfig(attempts=3))
    assert (stype.shifts, witness) == ((3, 3), lines[2])


def test_mixed_generators_get_exact_splitting():
    # non-power generators go through the dimension-count route
    quintics = mixed_quintics()
    result = splitting_type_at(quintics, GOOD_FORM)
    assert result.shifts == (5, 5, 6, 7)
    assert result.restricted_socle == 5
    assert sum(result.shifts) == sum(quintics.generator_degrees)


# -- the predicted rank table -----------------------------------------------------


def test_prediction_for_squares():
    prediction = predict_wlp(SQUARES, GOOD_FORM)
    assert prediction.holds
    assert prediction.hilbert == (1, 3, 3, 1)
    assert [(r.degree, r.rank) for r in prediction.records] == [
        (0, 1),
        (1, 3),
        (2, 1),
    ]
    assert [(r.kernel_dim, r.cokernel_dim) for r in prediction.records] == [
        (0, 2),
        (0, 0),
        (2, 0),
    ]


def test_prediction_flags_known_failure():
    # the failing degree of the quintics-with-monomials example is predicted
    # purely from splitting data, no direct elimination at all
    prediction = predict_wlp(mixed_quintics(), GOOD_FORM)
    assert not prediction.holds
    assert prediction.failures == (4,)
    table = {r.degree: r for r in prediction.records}
    assert (table[4].source_dim, table[4].target_dim, table[4].rank) == (13, 13, 12)
    assert table[4].cokernel_dim == 1
    assert table[4].kernel_dim == 1


def test_syzygy_module_dim_and_connecting_map():
    degrees = (2, 2, 2)
    alg = SQUARES.algebra
    hilbert = alg.hilbert_function()
    shifts = (3, 3)
    # relation space dimensions: free covers minus the ideal piece; the
    # three pairwise relations between the squares appear in degree 4
    assert syzygy_module_dim(degrees, hilbert, 2) == 0
    assert syzygy_module_dim(degrees, hilbert, 3) == 0
    assert syzygy_module_dim(degrees, hilbert, 4) == 3
    for m in range(0, 6):
        value = connecting_image_dim(shifts, degrees, hilbert, m)
        assert value >= 0


# -- property: prediction equals measurement --------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=900),
)
def test_splitting_formula_matches_exact_restriction(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=71, index=salt, num_vars=3)
    alg = ideal.algebra
    if not alg.is_artinian():
        return
    ell = seeded_forms(3, 1, seed=72, index=salt, bound=40)[0]
    try:
        measured = splitting_type_at(ideal, ell)
    except GenericityError:
        return
    predicted = predicted_splitting_type(degrees)
    assert measured.shifts == predicted.shifts
    assert measured.restricted_socle == predicted.restricted_socle
    assert sum(measured.shifts) == sum(degrees)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=900),
)
def test_predicted_table_matches_direct_ranks(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=81, index=salt, num_vars=3)
    alg = ideal.algebra
    if not alg.is_artinian():
        return
    config = CheckConfig(seed=82 + salt, bound=60, attempts=3)
    direct = wlp_check(ideal, config)
    prediction = predict_wlp(ideal, direct.form)
    assert prediction.holds == direct.holds
    direct_by_degree = {r.degree: r.rank for r in direct.records}
    for r in prediction.records:
        assert direct_by_degree[r.degree] == r.rank


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=6))
def test_predicted_conservation_and_socle_consistency(degrees):
    stype = predicted_splitting_type(tuple(degrees))
    assert sum(stype.shifts) == sum(degrees)
    resolution = binary_power_resolution(degrees)
    assert stype.restricted_socle == resolution.socle_degree
