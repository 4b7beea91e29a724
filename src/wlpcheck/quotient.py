"""Graded Artinian quotients of a polynomial ring, degree by degree.

A :class:`GradedIdeal` lists its generators in one format: a polynomial,
or a power ``(form, k)`` of a linear form.  Its quotient is the
:class:`QuotientAlgebra` in ``ideal.algebra``, built on first use and owned
by the ideal, so it lives exactly as long as the ideal does.  The algebra
computes one graded piece at a time: the row space of the ideal in that
degree, its exact rank, and therefore the dimension of the quotient piece.
A piece keeps three integers, its degree, the number of monomials of
that degree and the rank; its rows and any echelon basis are dropped once
the rank is read.  Ranks go through a modular fast path first; a rank
modulo the working prime that reaches the number of rows or of columns is
already a certificate, anything less is recomputed exactly, so every
number that leaves this module is exact.

Every question about the quotient is answered by dimensions of pieces.
Membership is one: f of degree d lies in the ideal exactly when the
quotient by I + (f) has the same degree-d dimension as the quotient by I.

Pieces are computed in normalized coordinates.  When the algebra is built
it picks a maximal linearly independent set of the power generators'
forms L_1, ..., L_k (smallest exponents first, ties by generator order) and
completes them to a basis with unit vectors.  In the coordinates
y_i = L_i the chosen powers become the monomials y_i^{a_i}, so the monomial
part of every graded piece is counted rather than eliminated: only the
standard monomials, those with u_i < a_i for every bounded coordinate, are
columns, and only the remaining generators, rewritten and projected onto
them, are rows.  A linear change of coordinates is a graded automorphism
of the polynomial ring.  It maps the ideal onto its rewritten form and
multiplication by g onto multiplication by the rewritten g, so Hilbert
functions, ranks of multiplication maps and ideal membership are the same
in both coordinate systems.  Callers only ever see original coordinates.

Powers of linear forms are rewritten from their form: the form goes
through the change of coordinates and its power is expanded on the
standard monomials only, never in the original coordinates.  Other
polynomials are rewritten monomial by monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .errors import NotArtinianError
from .linalg import IntRowBasis, clear_row_to_int, rank_mod_prime
from .poly import GradedPoly, LinearForm, basis_size, monomial_basis, multinomial

Exponents = tuple[int, ...]
IntTerms = tuple[tuple[Exponents, int], ...]
# a generator given as a polynomial, or as a power (form, k) of a linear form
Generator = GradedPoly | tuple[LinearForm, int]


def shifted_rows(terms: IntTerms, shifts: Iterable[Exponents], target: dict[Exponents, int]) -> list[list[int]]:
    """Rows for monomial multiples: one row per shift monomial, zero rows dropped.

    ``terms`` lists the (exponents, coefficient) pairs of a polynomial; the
    row for shift u is the coefficient vector of u * poly over the monomials
    indexed by ``target``.  Products missing from ``target`` are dropped,
    which projects onto the standard monomials.  Monomial multiplication
    only shifts exponents, so no coefficient arithmetic happens here.
    """
    width = len(target)
    out = []
    for mono in shifts:
        row = [0] * width
        for exps, c in terms:
            j = target.get(tuple(a + b for a, b in zip(exps, mono)))
            if j is not None:
                row[j] = c
        if any(row):
            out.append(row)
    return out


def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of an invertible square matrix, by Gauss-Jordan over the rationals."""
    n = len(rows)
    work = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if work[i][c])
        work[c], work[p] = work[p], work[c]
        head = work[c][c]
        work[c] = [x / head for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [row[n:] for row in work]


@dataclass(frozen=True)
class GradedIdeal:
    """Homogeneous ideal given by generators, each a polynomial or a power.

    A power of a linear form stays the pair ``(form, k)``: it is never
    expanded in the original coordinates, and its form is what picks the
    normalized coordinates and what restriction to a hyperplane cuts.  The
    quotient by the ideal is ``algebra``, built on first use and kept for
    the ideal's lifetime, so every caller holding the ideal shares its pieces.
    """

    num_vars: int
    generators: tuple[Generator, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for g in self.generators:
            base, degree = g if isinstance(g, tuple) else (g, g.degree)
            if base.num_vars != self.num_vars:
                raise ValueError("generator variable count does not match the ideal")
            if base.is_zero:
                raise ValueError("zero generator")
            if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
                raise ValueError("generators must have a positive integer degree")

    @classmethod
    def from_powers(cls, pairs: Iterable[tuple[LinearForm, int]]) -> "GradedIdeal":
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("need at least one generator")
        return cls(pairs[0][0].num_vars, pairs)

    @classmethod
    def from_polys(cls, polys: Iterable[GradedPoly]) -> "GradedIdeal":
        polys = tuple(polys)
        if not polys:
            raise ValueError("need at least one generator")
        return cls(polys[0].num_vars, polys)

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g[1] if isinstance(g, tuple) else g.degree for g in self.generators)

    @cached_property
    def algebra(self) -> "QuotientAlgebra":
        return QuotientAlgebra(self)


@dataclass(frozen=True)
class DegreePiece:
    """One graded piece: the dimensions of the ideal and of the quotient in one degree.

    ``ambient_dim`` counts all monomials of the degree and ``ideal_rank``
    the dimension of the ideal's piece, the monomial part of the
    normalized coordinates included.  No basis of the piece is kept.
    """

    degree: int
    ambient_dim: int
    ideal_rank: int

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.ideal_rank


class QuotientAlgebra:
    """Quotient of the polynomial ring by a homogeneous ideal.

    Reached as ``ideal.algebra``.  It keeps the ideal's generators, not
    the ideal, so the ideal alone owns it.  Pieces are computed on demand
    and cached.  ``hilbert_function`` scans degrees upward and stops at the
    first zero piece; the scan is abandoned (NotArtinianError) past the
    socle bound of a complete intersection in the top generator degree,
    which no Artinian quotient can exceed.
    """

    def __init__(self, ideal: GradedIdeal):
        self.num_vars = n = ideal.num_vars
        self.generators = gens = ideal.generators
        self._degrees = ideal.generator_degrees
        self._pieces: dict[int, DegreePiece] = {}
        self._hilbert: tuple[int, ...] | None = None
        self._adjoined: tuple[Generator, QuotientAlgebra] | None = None
        # normalized coordinates: y_i = coords[i]; bounds[i] is the exponent
        # of the chosen power y_i^{a_i}, None for a completing unit vector
        span = IntRowBasis(n)
        coords: list[Sequence[Fraction]] = []
        bounds: list[int | None] = []
        chosen: set[int] = set()
        for a, i in sorted((g[1], i) for i, g in enumerate(gens) if isinstance(g, tuple)):
            form = gens[i][0]
            if span.insert(clear_row_to_int(form.coeffs)):
                coords.append(form.coeffs)
                bounds.append(a)
                chosen.add(i)
        for j in range(n):
            unit = [Fraction(i == j) for i in range(n)]
            if span.insert(clear_row_to_int(unit)):
                coords.append(unit)
                bounds.append(None)
        self._bounds = tuple(bounds)
        # x = B y / D with B an integer matrix, row i of B listed as (j, B_ij);
        # a degree-d polynomial only picks up the scalar D^-d, which changes no span
        flat = clear_row_to_int([x for row in _inverse(coords) for x in row])
        self._substitution = [
            [(j, b) for j, b in enumerate(flat[i * n:(i + 1) * n]) if b] for i in range(n)
        ]
        self._standard_cache: dict[int, dict[Exponents, int]] = {}
        self._images: list[list[dict[Exponents, int]]] = [[{(0,) * n: 1}]]
        self._others: list[tuple[int, IntTerms]] = []
        for i, g in enumerate(gens):
            if i not in chosen:
                terms = self._power_terms(*g) if isinstance(g, tuple) else self._rewrite(g)
                if terms:  # a generator inside the monomial part adds nothing
                    self._others.append((self._degrees[i], terms))

    # -- normalized coordinates ------------------------------------------

    def _standard(self, m: int) -> dict[Exponents, int]:
        """Column index of each standard monomial of degree m, graded-lex order."""
        got = self._standard_cache.get(m)
        if got is None:
            bounds = self._bounds
            got = {}
            for exps in monomial_basis(self.num_vars, m).exponents:
                if all(a is None or u < a for u, a in zip(exps, bounds)):
                    got[exps] = len(got)
            self._standard_cache[m] = got
        return got

    def _power_terms(self, form: LinearForm, k: int) -> IntTerms:
        """Primitive integer multiple of form^k in normalized coordinates, projected.

        The form is pushed through B first (one dot product per coordinate),
        then its power is expanded over the integers on the standard
        monomials only.
        """
        w = [0] * self.num_vars
        for c, row in zip(clear_row_to_int(form.coeffs), self._substitution):
            if c:
                for j, b in row:
                    w[j] += c * b
        acc = []
        for u in self._standard(k):
            c = multinomial(k, u)
            for w_j, e in zip(w, u):
                c *= w_j**e
            if c:
                acc.append((u, c))
        content = gcd(*(c for _, c in acc))
        return tuple((u, c // content) for u, c in acc)

    def _monomial_images(self, d: int) -> list[dict[Exponents, int]]:
        """Projected images of the degree-d monomials of the original coordinates.

        Built from degree d - 1: x^u = x^{u - e_i} * x_i with x_i = (B y)_i.
        The nonstandard monomials span an ideal, so projecting the factor
        first and the product afterwards loses nothing.
        """
        n = self.num_vars
        while len(self._images) <= d:
            k = len(self._images)
            below = self._images[k - 1]
            lower = monomial_basis(n, k - 1)
            standard = self._standard(k)
            level = []
            for u in monomial_basis(n, k).exponents:
                i = next(i for i, e in enumerate(u) if e)
                parent = below[lower.index(u[:i] + (u[i] - 1,) + u[i + 1:])]
                image: dict[Exponents, int] = {}
                for v, c in parent.items():
                    for j, b in self._substitution[i]:
                        w = v[:j] + (v[j] + 1,) + v[j + 1:]
                        if w in standard:
                            image[w] = image.get(w, 0) + c * b
                level.append({w: c for w, c in image.items() if c})
            self._images.append(level)
        return self._images[d]

    def _rewrite(self, f: GradedPoly) -> IntTerms:
        """Primitive integer multiple of f in normalized coordinates, projected."""
        acc: dict[Exponents, int] = {}
        for c, image in zip(clear_row_to_int(f.coeffs), self._monomial_images(f.degree)):
            if c:
                for w, b in image.items():
                    acc[w] = acc.get(w, 0) + c * b
        content = gcd(*acc.values())
        return tuple((w, c // content) for w, c in acc.items() if c)

    # -- graded pieces -------------------------------------------------

    def spanning_rows(self, m: int) -> list[list[int]]:
        """Rows spanning the degree-m ideal piece modulo its monomial part."""
        target = self._standard(m)
        rows: list[list[int]] = []
        for degree, terms in self._others:
            if degree <= m:
                rows.extend(shifted_rows(terms, self._standard(m - degree), target))
        return rows

    def adjoined(self, g: Generator) -> "QuotientAlgebra":
        """The algebra of I + (g), for g a polynomial or a power (form, k).

        Only the latest one is kept, so the ranks of one multiplier in every
        source degree share its pieces.
        """
        last = self._adjoined
        if last is None or last[0] != g:
            bigger = GradedIdeal(self.num_vars, self.generators + (g,))
            last = self._adjoined = (g, QuotientAlgebra(bigger))
        return last[1]

    def piece(self, m: int) -> DegreePiece:
        if m < 0:
            raise ValueError("degree must be nonnegative")
        got = self._pieces.get(m)
        if got is None:
            got = self._compute_piece(m)
            self._pieces[m] = got
        return got

    def _compute_piece(self, m: int) -> DegreePiece:
        ambient = basis_size(self.num_vars, m)
        ncols = len(self._standard(m))
        rows = self.spanning_rows(m)
        rank = rank_mod_prime(rows, ncols) if rows else 0
        if rank < min(len(rows), ncols):
            # a rank mod p never exceeds the rational rank, which never
            # exceeds either count: only a smaller one needs elimination
            basis = IntRowBasis(ncols)
            basis.extend(rows)
            rank = basis.rank
        # the nonstandard monomials lie in the ideal
        return DegreePiece(m, ambient, ambient - ncols + rank)

    def dimension(self, m: int) -> int:
        return self.piece(m).dim

    # -- Hilbert function ----------------------------------------------

    def _scan_bound(self) -> int:
        return self.num_vars * (max(self._degrees) - 1) + 1

    def hilbert_function(self) -> tuple[int, ...]:
        """Dimensions (h_0, ..., h_s) with h_s the last nonzero value."""
        if self._hilbert is not None:
            return self._hilbert
        if None in self._bounds and all(isinstance(g, tuple) for g in self.generators):
            raise NotArtinianError(
                "the linear forms do not span, so the quotient has positive dimension"
            )
        dims: list[int] = []
        bound = self._scan_bound()
        for m in range(bound + 1):
            d = self.dimension(m)
            if d == 0:
                self._hilbert = tuple(dims)
                return self._hilbert
            dims.append(d)
        raise NotArtinianError(
            f"no zero piece through degree {bound}, past any Artinian socle "
            "for these generator degrees",
            partial_dims=tuple(dims),
        )

    def is_artinian(self) -> bool:
        try:
            self.hilbert_function()
        except NotArtinianError:
            return False
        return True

    def socle_degree(self) -> int:
        return len(self.hilbert_function()) - 1

    def contains(self, f: GradedPoly) -> bool:
        """Is f in the ideal?

        For f of degree d, (I + (f))_d is I_d plus the span of f, so f lies
        in I_d exactly when adjoining it leaves the quotient's degree-d
        piece as it was: the same rule that gives every rank.
        """
        if f.num_vars != self.num_vars:
            raise ValueError("variable count does not match")
        if f.is_zero:
            return True
        if f.degree == 0:
            return False  # every generator has positive degree
        dim = self.dimension(f.degree)
        return dim == 0 or self.adjoined(f).dimension(f.degree) == dim
