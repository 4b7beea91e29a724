"""Exact linear algebra over the rationals.

Everything downstream (Hilbert functions, multiplication-map ranks, syzygy
shift recovery) reduces to ranks and row spans of matrices with rational
entries.  The engine is fraction-free: rows are cleared to primitive
integer vectors and eliminated by cross-multiplication with content removal,
so no division ever leaves the integers and every answer is exact.
``IntRowBasis`` is the only exact elimination routine: it computes the
exact ranks of graded pieces, and it also picks the normalized coordinates
of a quotient and inverts their change of basis (see :mod:`wlpcheck.quotient`).

``exact_rank`` is the one rule for when a rank is trusted, and the only
caller of ``rank_mod_prime``, a single-prime modular fast path with a
one-sided guarantee: the modular rank never exceeds the rational rank, and
no rank exceeds the number of rows or of columns, so a modular rank that
reaches min(#rows, #cols) is the exact rank.  Any smaller modular answer is
recomputed by ``IntRowBasis`` before it is returned.  The modular path has
two branches, picked by the size of the matrix, each the faster one on its
side of the cutoff:

* below ``NUMPY_CELLS`` entries, an incremental echelon form in plain
  Python that stops as soon as the rank is full.  It reduces mod p only
  the entry it reads as a pivot and the pivot rows it stores; a row under
  reduction keeps its other entries unreduced, where they grow by less
  than p^2 a step.
* from there on, a column-by-column reduction over an int64 array.  Each
  step scales a copy of the pivot row, lets the first unused row take its
  place, and updates only the rows below it with a nonzero entry in the
  pivot column, and only from that column on.

numpy is imported only when a matrix reaches the cutoff.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

FAST_PRIME = 2**31 - 1
# Matrices with at least this many entries are ranked mod p with numpy, the
# smaller ones in pure Python: the measured crossover (CHANGES.md has the table).
NUMPY_CELLS = 512


def clear_row_to_int(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row by the lcm of its denominators."""
    mult = 1
    for x in row:
        mult = lcm(mult, x.denominator)
    return [x.numerator * (mult // x.denominator) for x in row]


class IntRowBasis:
    """Incremental basis of an integer row space, kept in echelon form.

    Rows are primitive integer vectors sorted by pivot column.  Insertion
    reduces the incoming row by cross-multiplication (no fractions appear)
    and strips content after every elimination step, which keeps entry growth
    close to the minimum the minors allow.
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
        """Eliminate the pivot coordinates of ``vec``; scale is not preserved."""
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            a = v[p]
            if not a:
                continue
            b = row[p]
            g = gcd(a, b)
            ca = b // g
            cb = a // g
            if ca == 1:
                v = [x - cb * y for x, y in zip(v, row)]
            else:
                v = [ca * x - cb * y for x, y in zip(v, row)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
        return v

    def insert(self, vec: Sequence[int]) -> bool:
        """Add ``vec`` to the span.  Returns True when the rank grew."""
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


def exact_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Exact rank of an integer row span: the one place a rank is certified.

    A rank mod p that reaches min(#rows, #cols) is exact; any smaller one
    is recomputed by fraction-free elimination.
    """
    rank = rank_mod_prime(rows, ncols)
    if rank < min(len(rows), ncols):
        basis = IntRowBasis(ncols)
        basis.extend(rows)
        rank = basis.rank
    return rank


def rank_mod_prime(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of an integer row span modulo ``FAST_PRIME``.

    Always a lower bound for the rational rank (a nonzero minor can vanish mod
    p but not the other way around), so ``rank_mod_prime(...) == min(shape)``
    certifies the exact rank.  Smaller answers are only probabilistic.
    """
    if not rows or ncols == 0:
        return 0
    if len(rows) * ncols < NUMPY_CELLS:
        return _echelon_rank(rows, ncols)
    return _numpy_rank(rows, ncols)


def _echelon_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Incremental echelon form mod p; stops once the rank is full.

    Only the entry read as a pivot and the row stored as a pivot row are
    reduced mod p.  The other entries of a row under reduction change by
    a * y with 0 <= a, y < p at each of at most r steps, so they stay below
    |x_0| + r p^2 and every test of an entry reads it mod p.
    """
    p = FAST_PRIME
    full = min(len(rows), ncols)
    pivots: dict[int, list[int]] = {}  # pivot column -> row scaled to 1 there, zero before it
    for v in rows:
        for c in range(ncols):
            a = v[c] % p
            if not a:
                continue
            echelon = pivots.get(c)
            if echelon is None:
                inv = pow(a, -1, p)
                pivots[c] = [x * inv % p for x in v]
                if len(pivots) == full:
                    return full
                break
            v = [x - a * y for x, y in zip(v, echelon)]
    return len(pivots)


def _numpy_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Row reduction mod p over an int64 array, one column at a time.

    Each step updates only the rows below the pivot with a nonzero entry
    in its column, and only the columns from the pivot on.  Only the rank
    is wanted, so the pivot row is scaled into a copy and then dropped:
    the first row not yet used takes its place.
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
