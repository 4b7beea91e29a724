"""Exact linear algebra against a naive Fraction elimination oracle."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frac_rank, frac_solveable
from wlpcheck.linalg import FAST_PRIME, IntRowBasis, clear_row_to_int, rank_mod_prime

small_int = st.integers(min_value=-30, max_value=30)


def int_matrix(max_rows=6, max_cols=6):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda ncols: st.lists(
            st.lists(small_int, min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=max_rows,
        )
    )


# -- frozen small cases ---------------------------------------------------


def _rank(rows):
    basis = IntRowBasis(len(rows[0]))
    basis.extend(clear_row_to_int([Fraction(x) for x in row]) for row in rows)
    return basis.rank


def test_rank_frozen_cases():
    assert _rank([[1, 2], [2, 4]]) == 1
    assert _rank([[1, 0], [0, 1]]) == 2
    assert _rank([[0] * 4] * 3) == 0
    assert _rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_clear_row_to_int():
    assert clear_row_to_int([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert clear_row_to_int([Fraction(0), Fraction(-2)]) == [0, -2]
    assert clear_row_to_int([Fraction(0), Fraction(0)]) == [0, 0]


def test_row_basis_membership():
    basis = IntRowBasis(3)
    assert basis.extend([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2
    assert basis.rank == 2
    assert not any(basis.reduce([5, -7, 0]))
    assert any(basis.reduce([0, 0, 1]))


def test_extend_reports_rank_gain():
    basis = IntRowBasis(4)
    assert basis.extend([[1, 1, 0, 0]]) == 1
    assert basis.extend([[2, 2, 0, 0], [0, 0, 1, 0]]) == 1
    assert basis.rank == 2


# -- oracle agreement -----------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(int_matrix())
def test_rank_matches_naive_elimination(rows):
    expected = frac_rank(rows)
    basis = IntRowBasis(len(rows[0]))
    basis.extend(rows)
    assert basis.rank == expected


@settings(max_examples=120, deadline=None)
@given(int_matrix())
def test_modular_rank_never_exceeds_exact(rows):
    exact = frac_rank(rows)
    modular = rank_mod_prime(rows, len(rows[0]), FAST_PRIME)
    assert modular <= exact
    # entries this small cannot hit a vanishing minor mod a 31-bit prime
    assert modular == exact


@settings(max_examples=100, deadline=None)
@given(int_matrix())
def test_basis_contains_agrees_with_solveability(rows):
    target = rows[-1]
    span = rows[:-1]
    if not span:
        span = [[0] * len(target)]
    basis = IntRowBasis(len(target))
    basis.extend(span)
    assert (not any(basis.reduce(target))) == frac_solveable(span, target)
