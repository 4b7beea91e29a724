"""Exact linear algebra over the rationals.

Everything downstream (Hilbert functions, multiplication-map ranks, syzygy
shift recovery) reduces to ranks and row spans of matrices with rational
entries.  The engine is fraction-free: rows are cleared to primitive
integer vectors and eliminated by cross-multiplication with content removal,
so no division ever leaves the integers and every answer is exact.

``rank_mod_prime`` is a single-prime modular fast path with a one-sided
guarantee: the modular rank never exceeds the rational rank, and no rank
exceeds the number of rows or of columns, so a modular rank that reaches
min(#rows, #cols) is the exact rank.  Callers in this package only use it
that way; any smaller modular answer is recomputed exactly before it can
influence a reported value.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

FAST_PRIME = 2**31 - 1


def clear_row_to_int(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row by the lcm of its denominators."""
    mult = 1
    for x in row:
        mult = lcm(mult, x.denominator)
    return [x.numerator * (mult // x.denominator) for x in row]


def _content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def _primitive(v: list[int]) -> list[int]:
    g = _content(v)
    if g > 1:
        return [x // g for x in v]
    return v


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
            v = _primitive(v)
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
        if v[pivot] < 0:
            v = [-x for x in v]
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, v)
        return True

    def extend(self, rows: Iterable[Sequence[int]]) -> int:
        return sum(1 for row in rows if self.insert(row))


def rank_mod_prime(rows: Sequence[Sequence[int]], ncols: int, prime: int = FAST_PRIME) -> int:
    """Rank of an integer row span modulo ``prime``.

    Always a lower bound for the rational rank (a nonzero minor can vanish mod
    p but not the other way around), so ``rank_mod_prime(...) == min(shape)``
    certifies the exact rank.  Smaller answers are only probabilistic.
    """
    if not rows or ncols == 0:
        return 0
    a = np.array([[x % prime for x in row] for row in rows], dtype=np.int64)
    nrows = a.shape[0]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), prime - 2, prime)
        a[r] = (a[r] * inv) % prime
        below = a[r + 1:]
        if below.size:
            factors = below[:, c]
            mask = factors != 0
            if mask.any():
                below[mask] = (below[mask] - factors[mask, None] * a[r]) % prime
        r += 1
    return r
