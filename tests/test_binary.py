"""Two-variable closed forms against exact computation on concrete forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_power_ideal
from wlpcheck import NotArtinianError
from wlpcheck.binary import (
    binary_power_resolution,
    minimal_power_degrees,
    power_ideal_dim,
    power_quotient_dim,
    power_syzygy_shifts,
    syzygy_shifts_from_hilbert,
)
from wlpcheck.errors import HilbertDataError
from wlpcheck.poly import basis_size
from wlpcheck.quotient import QuotientAlgebra

exponent_lists = st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=6)


# -- frozen cases -----------------------------------------------------------


def test_minimal_degrees_frozen():
    assert minimal_power_degrees([2, 2, 2]) == (2, 2, 2)
    assert minimal_power_degrees([2, 2, 2, 2]) == (2, 2, 2)
    assert minimal_power_degrees([1, 1, 5]) == (1, 1)
    assert minimal_power_degrees([3, 3, 3, 9]) == (3, 3, 3)
    assert minimal_power_degrees([2, 5, 5]) == (2, 5, 5)
    assert minimal_power_degrees([5, 5, 4, 4, 5]) == (4, 4, 5, 5)
    assert minimal_power_degrees([6]) == (6,)


def test_resolution_frozen():
    two = binary_power_resolution([3, 4])
    assert two.socle_degree == 5
    assert two.shifts == (7,)

    squares = binary_power_resolution([2, 2, 2])
    assert squares.socle_degree == 1
    assert squares.shifts == (3, 3)

    cubes = binary_power_resolution([3, 3, 3])
    assert cubes.socle_degree == 3
    assert cubes.shifts == (4, 5)

    four_cubes = binary_power_resolution([3, 3, 3, 3])
    assert four_cubes.socle_degree == 2
    assert four_cubes.shifts == (4, 4, 4)
    assert minimal_power_degrees([3, 3, 3, 3]) == (3, 3, 3, 3)
    assert minimal_power_degrees([3, 3, 3, 3, 3]) == (3, 3, 3, 3)


def test_exponent_lists_must_be_nonempty_and_positive():
    with pytest.raises(ValueError):
        minimal_power_degrees([])
    with pytest.raises(ValueError):
        minimal_power_degrees([0, 2])
    with pytest.raises(ValueError):
        syzygy_shifts_from_hilbert([3], lambda m: power_ideal_dim([3], m))


def test_resolution_needs_two_minimal_generators():
    with pytest.raises(NotArtinianError):
        binary_power_resolution([4])


def test_dim_formula_frozen():
    # degrees (2, 2) in two variables: a complete intersection, socle degree 2
    assert [power_ideal_dim([2, 2], m) for m in range(5)] == [0, 0, 2, 4, 5]
    assert [power_quotient_dim([2, 2], m) for m in range(5)] == [1, 2, 1, 0, 0]
    assert power_quotient_dim([2, 2, 2], 2) == 0


def test_unpruned_shifts_include_redundant_degrees():
    assert sorted(power_syzygy_shifts([3, 3, 3, 9])) == [4, 5, 9]


def test_unpruned_shifts_for_redundant_square():
    # the fourth square is redundant, so it splits off at its own degree
    assert sorted(power_syzygy_shifts([2, 2, 2, 2])) == [2, 3, 3]
    assert sorted(power_syzygy_shifts([2, 2, 3])) == [3, 4]


def test_corrupt_dimension_data_is_rejected():
    # dims of a fake "ideal" that no finite-colength ideal can produce
    with pytest.raises(HilbertDataError):
        syzygy_shifts_from_hilbert([2, 2], lambda m: 0)


# -- properties -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(exponent_lists)
def test_minimal_degrees_are_a_sorted_prefix_property(exponents):
    kept = minimal_power_degrees(exponents)
    assert list(kept) == sorted(kept)
    assert 1 <= len(kept) <= len(exponents)
    assert sorted(exponents)[: len(kept)] == list(kept)


@settings(max_examples=150, deadline=None)
@given(exponent_lists)
def test_conservation_of_shift_sum(exponents):
    shifts = power_syzygy_shifts(exponents)
    assert len(shifts) == len(exponents) - 1
    assert sum(shifts) == sum(exponents)


@settings(max_examples=150, deadline=None)
@given(exponent_lists)
def test_resolution_matches_second_difference_route(exponents):
    minimal = minimal_power_degrees(exponents)
    if len(minimal) < 2:
        return
    res = binary_power_resolution(exponents)
    recovered = syzygy_shifts_from_hilbert(
        minimal, lambda m: power_ideal_dim(minimal, m)
    )
    assert tuple(sorted(res.shifts)) == tuple(sorted(recovered))


@settings(max_examples=150, deadline=None)
@given(exponent_lists)
def test_unpruned_equals_minimal_plus_redundant(exponents):
    minimal = minimal_power_degrees(exponents)
    if len(minimal) < 2:
        return
    redundant = sorted(exponents)[len(minimal):]
    full = power_syzygy_shifts(exponents)
    pruned = power_syzygy_shifts(minimal)
    assert sorted(full) == sorted(list(pruned) + redundant)


@settings(max_examples=150, deadline=None)
@given(exponent_lists)
def test_socle_degree_bounds(exponents):
    minimal = minimal_power_degrees(exponents)
    if len(minimal) < 2:
        return
    res = binary_power_resolution(exponents)
    # quotient vanishes exactly above the socle degree
    assert power_quotient_dim(minimal, res.socle_degree) > 0
    assert power_quotient_dim(minimal, res.socle_degree + 1) == 0
    # shifts sit just above the socle
    assert set(res.shifts) <= {res.socle_degree + 1, res.socle_degree + 2}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5),
    st.integers(min_value=0, max_value=1000),
)
def test_closed_form_dims_match_exact_algebra(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=31, index=salt, num_vars=2)
    alg = QuotientAlgebra(ideal)
    hf = alg.hilbert_function()
    for m in range(len(hf) + 2):
        expected = power_quotient_dim(degrees, m)
        got = hf[m] if m < len(hf) else 0
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5),
    st.integers(min_value=0, max_value=1000),
)
def test_shift_recovery_from_exact_dimensions(degrees, salt):
    ideal = seeded_power_ideal(degrees, seed=37, index=salt, num_vars=2)
    alg = QuotientAlgebra(ideal)
    recovered = syzygy_shifts_from_hilbert(degrees, lambda m: basis_size(2, m) - alg.piece(m))
    assert sorted(recovered) == sorted(power_syzygy_shifts(degrees))


@settings(max_examples=100, deadline=None)
@given(exponent_lists)
def test_euler_characteristic_of_the_presentation(exponents):
    # free presentation forces dim I_m = Σ h(m - d_i) - Σ h(m - b_j)
    # degree by degree, where h(k) = max(k + 1, 0) in two variables
    shifts = power_syzygy_shifts(exponents)
    top = max(exponents) + max(shifts) + 3
    for m in range(top):
        gens = sum(max(m - d + 1, 0) for d in exponents)
        rels = sum(max(m - b + 1, 0) for b in shifts)
        assert power_ideal_dim(exponents, m) == gens - rels
