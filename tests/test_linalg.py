"""Exact linear algebra against a naive Fraction elimination oracle."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frac_rank, frac_solveable
from wlpcheck.linalg import FAST_PRIME, NUMPY_CELLS, IntRowBasis, exact_rank, rank_mod_prime
from wlpcheck.poly import linear_form

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
    # a rational row stands for its cleared integer multiple, which spans the same line
    basis.extend(linear_form(row).coeffs for row in rows)
    return basis.rank


def test_rank_frozen_cases():
    assert _rank([[1, 2], [2, 4]]) == 1
    assert _rank([[1, 0], [0, 1]]) == 2
    assert _rank([[0] * 4] * 3) == 0
    assert _rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


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


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda ncols: st.tuples(
            *(st.lists(st.lists(small_int, min_size=ncols, max_size=ncols), max_size=6) for _ in range(2))
        )
    ).filter(lambda pair: pair[0] or pair[1])
)
def test_ranking_in_a_cokernel_matches_naive_elimination(pair):
    # the cokernel of the first rows kills exactly their span, so the rank of
    # the other rows projected into it is what they add to that span
    first, other = pair
    ncols = len((first or other)[0])
    basis = IntRowBasis(ncols)
    basis.extend(first)
    stored = [list(row) for row in basis.rows]
    images = basis.cokernel()
    assert basis.rows == stored  # the basis is left as it was
    assert len(images) == ncols
    width = ncols - frac_rank(first)
    weights = [[] for _ in range(width)]  # each coordinate's, made primitive
    for pairs in images:
        for k, w in pairs:
            weights[k].append(w)
    assert all(gcd(*coordinate) == 1 for coordinate in weights)

    def project(rows):
        # a row's image is the sum of x π(e_j) over its entries x
        out = []
        for row in rows:
            image = [0] * width
            for x, pairs in zip(row, images):
                for k, w in pairs:
                    image[k] += x * w
            out.append(image)
        return out

    assert not any(map(any, project(first)))
    assert frac_rank(project(other)) == frac_rank(first + other) - frac_rank(first)


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


# -- both sides of the cutoff --------------------------------------------------


@st.composite
def sized_matrix(draw, min_cells, max_cells):
    """An integer matrix with min_cells <= rows * cols <= max_cells.

    Half of the draws are products A B through an inner dimension k below
    both sides, so their rank is at most k: rank-deficient on purpose.
    Entries are small or reach about 2^200, far above the prime, as the
    rewritten generators' coefficients do.
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


def _exact_ranks(rows):
    """The rank by exact_rank and by an IntRowBasis fed every row."""
    ncols = len(rows[0])
    basis = IntRowBasis(ncols)
    basis.extend(rows)
    return exact_rank(rows, ncols), basis.rank


@settings(max_examples=40, deadline=None)
@given(sized_matrix(1, NUMPY_CELLS - 1))
def test_exact_rank_below_the_cutoff(rows):
    # eliminated exactly at once, with no screen mod p
    assert len(rows) * len(rows[0]) < NUMPY_CELLS
    expected = frac_rank(rows)
    assert _exact_ranks(rows) == (expected, expected)


@settings(max_examples=20, deadline=None)
@given(sized_matrix(NUMPY_CELLS, 2 * NUMPY_CELLS))
def test_modular_rank_above_the_cutoff(rows):
    assert len(rows) * len(rows[0]) >= NUMPY_CELLS
    expected = frac_rank(rows)
    assert rank_mod_prime(rows, len(rows[0])) == expected
    assert _exact_ranks(rows) == (expected, expected)


def test_an_empty_piece_has_rank_zero():
    assert exact_rank([], 7) == 0
    assert exact_rank([[], []], 0) == 0


def test_a_multiple_of_the_prime_is_lost_mod_p():
    # a pivot divisible by p vanishes mod p: the modular rank falls short of
    # the rational one, never above it, and exact_rank recovers the rest on
    # both sides of the cutoff
    assert 3 * 3 < NUMPY_CELLS <= 32 * 32
    for size in (3, 32):
        rows = [[int(i == j) * (FAST_PRIME if i == 0 else 1) for j in range(size)] for i in range(size)]
        assert frac_rank(rows) == size
        assert rank_mod_prime(rows, size) == size - 1
        assert exact_rank(rows, size) == size


# -- content: stored rows primitive, reduced rows a positive multiple ----------

# large enough that a row scaled by one outgrows the small pivots it meets
factors = st.integers(min_value=1, max_value=2**300)


@settings(max_examples=40, deadline=None)
@given(sized_matrix(1, NUMPY_CELLS - 1), st.lists(factors, min_size=40, max_size=40))
def test_stored_rows_are_primitive_with_positive_pivots(rows, scales):
    # every row carries a large common factor, every other one a sign too
    scaled = [[(-1) ** i * f * x for x in row] for i, (row, f) in enumerate(zip(rows, scales))]
    basis = IntRowBasis(len(rows[0]))
    basis.extend(scaled)
    assert basis.rank == frac_rank(rows)
    assert basis.pivots == sorted(basis.pivots)
    for p, row in zip(basis.pivots, basis.rows):
        assert not any(row[:p])
        assert row[p] > 0
        assert gcd(*row) == 1


def test_reduce_sheds_a_common_factor_that_outgrows_the_pivots():
    basis = IntRowBasis(3)
    basis.insert([1, 0, 1])
    big = 2**200
    # 3 * 2^200 has far more bits than the pivot 1: the factor goes before the step
    assert basis.reduce([3 * big, 5 * big, 7 * big]) == [0, 5, 4]
    assert basis.reduce([-3 * big, -5 * big, -7 * big]) == [0, -5, -4]
    # a row that has not outgrown the pivot keeps its content
    assert basis.reduce([6, 10, 14]) == [0, 10, 8]


def _reduced_over_q(basis, vec):
    """vec minus the combination of the basis rows that clears every pivot."""
    w = [Fraction(x) for x in vec]
    for p, row in zip(basis.pivots, basis.rows):
        if w[p]:
            t = w[p] / row[p]
            w = [x - t * y for x, y in zip(w, row)]
    return w


@settings(max_examples=60, deadline=None)
@given(sized_matrix(1, NUMPY_CELLS - 1), factors, st.booleans())
def test_reduce_returns_a_positive_multiple_of_the_reduced_row(rows, factor, sign):
    # back-substitution (IntRowBasis.reduced, behind the cokernels and the
    # coordinate inversion of a quotient) reads the sign and the ratios of
    # the reduced row, not its scale
    *span, target = rows
    basis = IntRowBasis(len(target))
    basis.extend(span)
    target = [(-1) ** sign * factor * x for x in target]
    got = basis.reduce(target)
    want = _reduced_over_q(basis, target)
    nonzero = [i for i, x in enumerate(want) if x]
    if not nonzero:
        assert not any(got)
        return
    ratio = got[nonzero[0]] / want[nonzero[0]]
    assert ratio > 0
    assert got == [ratio * x for x in want]


# -- back-substitution: rows cleared at each other's pivots --------------------


def test_reduced_rows_clear_each_other_s_pivots():
    basis = IntRowBasis(3)
    basis.extend([[1, 2, 3], [0, 1, 4]])
    assert basis.reduced() == [[1, 0, -5], [0, 1, 4]]
    # the rows [C | I] reduce to [D e_j | b_j] over the common pivot D = 6,
    # b_j being D times row j of C^-1
    basis = IntRowBasis(4)
    basis.extend([[2, 0, 1, 0], [1, 3, 0, 1]])
    assert basis.reduced() == [[6, 0, 3, 0], [0, 6, -1, 2]]
    # clearing column 1 leaves the first row with content 3, shed before
    # column 2, whose entry has outgrown the pivot 1: the pivot stays positive
    basis = IntRowBasis(4)
    basis.extend([[3, 1, 3 * 2**100, 1], [0, 1, 0, 1], [0, 0, 1, 5]])
    assert basis.reduced() == [[1, 0, 0, -5 * 2**100], [0, 1, 0, 1], [0, 0, 1, 5]]


@settings(max_examples=40, deadline=None)
@given(sized_matrix(1, NUMPY_CELLS - 1))
def test_reduced_rows_are_primitive_cleared_and_span_the_basis(rows):
    # half of the draws have entries far above the pivots they meet, so
    # back-substitution sheds content on the way
    basis = IntRowBasis(len(rows[0]))
    basis.extend(rows)
    stored = [list(row) for row in basis.rows]
    reduced = basis.reduced()
    assert basis.rows == stored  # the basis is left as it was
    assert len(reduced) == basis.rank
    assert frac_rank(reduced) == frac_rank(reduced + rows) == frac_rank(rows)
    for p, row in zip(basis.pivots, reduced):
        assert not any(row[:p])
        assert not any(row[q] for q in basis.pivots if q != p)
    # one common pivot D > 0, the least one: the lcm of the pivots of the
    # rows made primitive, so the rows together are primitive
    pivots = [row[p] for p, row in zip(basis.pivots, reduced)]
    assert pivots == [lcm(*(row[p] // gcd(*row) for p, row in zip(basis.pivots, reduced)))] * len(pivots)
    assert not reduced or gcd(*(x for row in reduced for x in row)) == 1
