"""Exact linear algebra over the integers.

Everything downstream (Hilbert functions, multiplication-map ranks, syzygy
shift recovery) reduces to ranks and row spans of integer matrices: a
generator scaled by a nonzero rational spans the same ideal, so
:mod:`wlpcheck.poly` stores it cleared to integers, and the rank over the
integers is the rank over the rationals.  The engine is fraction-free:
rows are eliminated by cross-multiplication, so no division ever leaves
the integers and every answer is exact.  A row under reduction sheds its
content only once it has outgrown the pivot rows that reduce it, and every
stored row is primitive.  ``IntRowBasis`` is the only exact elimination
routine: it computes the exact ranks of graded pieces and the cokernels
that pieces are ranked in, and it also picks the normalized coordinates
of a quotient (a form is kept when inserting it raises the rank, and the
unit vectors off the pivots complete them).  Its one back-substitution,
``IntRowBasis.reduced``, returns rows scaled to one common pivot, so both
the cokernels and the inverse of that change of basis, the reduced rows
[C | I] (see :mod:`wlpcheck.quotient`), read their weights straight off
them, with no rescaling of their own.

``exact_rank`` is the one rule for when a rank is trusted.  A piece below
``NUMPY_CELLS`` entries is eliminated exactly at once.  A bigger one is
ranked first by ``rank_mod_prime``, a modular fast path with a one-sided
guarantee: the modular rank never exceeds the rational rank, and no rank
exceeds the number of rows or of columns, so a modular rank that reaches
min(#rows, #cols) is the exact rank.  Any smaller modular answer is
recomputed by ``IntRowBasis`` before it is returned.  ``rank_mod_prime`` is
a column-by-column reduction over an int64 array: each step scales a copy
of the pivot row, lets the first unused row take its place, and updates
only the rows below it with a nonzero entry in the pivot column, and only
from that column on.  numpy is imported only when a matrix reaches the
cutoff.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from typing import Iterable, Sequence

FAST_PRIME = 2**31 - 1
# Matrices with at least this many entries are screened mod p with numpy, the
# smaller ones eliminated exactly at once: the measured crossover (CHANGES.md
# has the table).  Every corpus piece is below it, so the CLI never loads numpy.
NUMPY_CELLS = 512
# A row under reduction sheds its content when the entry about to be
# eliminated has more than STRIP_RATIO times the bits of the pivot it meets,
# plus STRIP_SLACK bits: the measured best (CHANGES.md has the table).
STRIP_RATIO = 8
STRIP_SLACK = 64


class IntRowBasis:
    """Incremental basis of an integer row space, kept in echelon form.

    Rows are primitive integer vectors with a positive pivot, sorted by
    pivot column.  Insertion reduces the incoming row by cross-multiplication
    (no fractions appear).  Its content is stripped only when the entry about
    to be eliminated has outgrown the pivot that eliminates it, a test on a
    number already at hand, not by a gcd pass after every step.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Eliminate the pivot coordinates of ``vec``.

        The result is a positive multiple of ``vec`` minus the combination of
        the stored rows that clears their pivots; its content is not stripped.
        """
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            a = v[p]
            if not a:
                continue
            b = row[p]
            if a.bit_length() > STRIP_RATIO * b.bit_length() + STRIP_SLACK:
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
                    a = v[p]
            g = gcd(a, b)
            ca = b // g
            cb = a // g
            if ca == 1:
                v = [x - cb * y for x, y in zip(v, row)]
            else:
                v = [ca * x - cb * y for x, y in zip(v, row)]
        return v

    def insert(self, vec: Sequence[int]) -> bool:
        """Add ``vec`` to the span.  Returns True when the rank grew."""
        if len(self.rows) == self.ncols:  # the span is everything
            return False
        v = self.reduce(vec)
        pivot = -1
        for i, x in enumerate(v):
            if x:
                pivot = i
                break
        if pivot < 0:
            return False
        g = gcd(*v) if v[pivot] > 0 else -gcd(*v)
        if g != 1:
            v = [x // g for x in v]
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, v)
        return True

    def extend(self, rows: Iterable[Sequence[int]]) -> int:
        return sum(1 for row in rows if self.insert(row))

    def reduced(self) -> list[list[int]]:
        """The stored rows cleared at each other's pivots, by fraction-free
        back-substitution, and scaled to one common pivot: row i is zero at
        every pivot but its own, p_i, where it is D > 0, the least value
        such rows can share.  They span the same space, and the stored rows
        are left as they are.
        """
        # the rows are inserted, last first, into a fresh basis: each is
        # reduced against the rows after it, which are already cleared; they
        # are zero at its pivot, so the pivot entry only gains a positive
        # factor.  Row i is then primitive with pivot d_i, and D is the lcm
        # of the d_i.
        done = IntRowBasis(self.ncols)
        for row in reversed(self.rows):
            done.insert(row)
        common = lcm(*(row[p] for p, row in zip(self.pivots, done.rows)))
        return [[common // row[p] * x for x in row] for p, row in zip(self.pivots, done.rows)]

    def cokernel(self) -> list[list[tuple[int, int]]]:
        """A projection π whose kernel is the row span, onto ncols - rank
        coordinates, one per non-pivot column in order.  It is kept as the
        image of each unit vector: entry j lists the (coordinate, weight)
        pairs of π(e_j).

        The reduced rows (:meth:`reduced`) have D at pivot p_i and zero at
        the other pivots.  Then D v - sum_i v_{p_i} row_i is zero at every
        pivot, and zero everywhere exactly when v lies in the span.  Its
        entry at a non-pivot c, D v_c - sum_i v_{p_i} row_i[c], is one
        coordinate of π, with those weights made primitive.
        """
        pivots, rows = self.pivots, self.reduced()
        common = rows[0][pivots[0]] if rows else 1
        taken = set(pivots)
        images: list[list[tuple[int, int]]] = [[] for _ in range(self.ncols)]
        width = 0
        for c in range(self.ncols):
            if c not in taken:
                weights = [(c, common)] + [(p, -row[c]) for p, row in zip(pivots, rows) if row[c]]
                g = gcd(*(w for _, w in weights))
                for j, w in weights:
                    images[j].append((width, w // g))
                width += 1
        return images


def exact_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Exact rank of an integer row span: the one place a rank is certified.

    A matrix below ``NUMPY_CELLS`` entries is eliminated exactly at once.
    A bigger one is ranked mod p first: a rank that reaches
    min(#rows, #cols) is exact, and any smaller one is recomputed by
    fraction-free elimination.
    """
    if not rows:
        return 0
    full = min(len(rows), ncols)
    if len(rows) * ncols >= NUMPY_CELLS and rank_mod_prime(rows, ncols) == full:
        return full
    basis = IntRowBasis(ncols)
    basis.extend(rows)
    return basis.rank


def rank_mod_prime(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of an integer row span modulo ``FAST_PRIME``, by row reduction
    over an int64 array, one column at a time.

    Always a lower bound for the rational rank (a nonzero minor can vanish mod
    p but not the other way around), so ``rank_mod_prime(...) == min(shape)``
    certifies the exact rank.  Smaller answers are only probabilistic.  Each
    step updates only the rows below the pivot with a nonzero entry in its
    column, and only the columns from the pivot on.  Only the rank is
    wanted, so the pivot row is scaled into a copy and then dropped: the
    first row not yet used takes its place.
    """
    import numpy as np  # only pieces above NUMPY_CELLS pay for the import

    p = FAST_PRIME
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    nrows = a.shape[0]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        pivot = a[i, c:] * pow(int(a[i, c]), -1, p) % p
        if i != r:
            # rows from r on are zero before column c, and row r is zero in it
            a[i, c:] = a[r, c:]
        if nz.size > 1:
            below = r + nz[1:]
            a[below, c:] = (a[below, c:] - a[below, c, None] * pivot) % p
        r += 1
    return r
