"""Exact linear algebra against a naive Fraction elimination oracle."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frac_rank, frac_solveable
from wlpcheck.linalg import FAST_PRIME, NUMPY_CELLS, IntRowBasis, clear_row_to_int, exact_rank, rank_mod_prime

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


def test_insert_stores_primitive_rows():
    basis = IntRowBasis(2)
    assert basis.insert([2, 4])
    assert basis.rows == [[1, 2]]
    basis = IntRowBasis(3)
    assert basis.insert([0, -6, 9])
    assert basis.insert([4, 0, 2])
    assert basis.rows == [[2, 0, 1], [0, 2, -3]]


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
    modular = rank_mod_prime(rows, len(rows[0]))
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


# -- both mod-p paths ---------------------------------------------------------


@st.composite
def sized_matrix(draw, min_cells, max_cells):
    """An integer matrix with min_cells <= rows * cols <= max_cells.

    Half of the draws are products A B through an inner dimension k below
    both sides, so their rank is at most k: rank-deficient on purpose.
    Entries are small or reach about 2^200, far above the prime, as the
    rewritten generators' coefficients do, so the lazy reduction mod p is
    exercised.
    """
    nrows = draw(st.integers(min_value=1, max_value=40))
    ncols = draw(st.integers(min_value=max(1, -(-min_cells // nrows)), max_value=max_cells // nrows))
    big = draw(st.booleans())
    if not draw(st.booleans()):
        bound = 2**200 if big else 9
        entries = st.integers(min_value=-bound, max_value=bound)
        return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # an entry of the product is a sum of products of two factors
    bound = 2**100 if big else 9
    entries = st.integers(min_value=-bound, max_value=bound)
    k = draw(st.integers(min_value=0, max_value=min(nrows, ncols) - 1))
    a = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(nrows)]
    b = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(k)]
    cols = list(zip(*b)) if k else [()] * ncols
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


@settings(max_examples=40, deadline=None)
@given(sized_matrix(1, NUMPY_CELLS - 1))
def test_modular_rank_below_the_cutoff(rows):
    assert len(rows) * len(rows[0]) < NUMPY_CELLS
    assert rank_mod_prime(rows, len(rows[0])) == frac_rank(rows)


@settings(max_examples=20, deadline=None)
@given(sized_matrix(NUMPY_CELLS, 2 * NUMPY_CELLS))
def test_modular_rank_above_the_cutoff(rows):
    assert len(rows) * len(rows[0]) >= NUMPY_CELLS
    assert rank_mod_prime(rows, len(rows[0])) == frac_rank(rows)


def test_a_multiple_of_the_prime_is_lost_on_both_paths():
    # a pivot divisible by p vanishes mod p: the modular rank falls short of
    # the rational one, never above it, and exact_rank recovers the rest
    assert 3 * 3 < NUMPY_CELLS <= 32 * 32
    for size in (3, 32):
        rows = [[int(i == j) * (FAST_PRIME if i == 0 else 1) for j in range(size)] for i in range(size)]
        assert frac_rank(rows) == size
        assert rank_mod_prime(rows, size) == size - 1
        assert exact_rank(rows, size) == size
