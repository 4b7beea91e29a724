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
number that leaves this module is exact.  Both read the same integer rows,
built once per piece.  Rows are built from monomial codes: in degree m an
exponent vector u is the integer sum_i u_i (m + 1)^i, and a monomial
multiple adds one code to another, with no carry since no exponent
exceeds m.

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

Every generator is rewritten by one rule, in integers.  It is read as a
sum of products of linear forms, each pushed through the change of
coordinates: a power (form, k) is k copies of its form, and a term c x^u
is c times u_i copies of x_i for each i.  Each product is multiplied out
one factor at a time and projected onto the standard monomials after
every factor, by the exponent bounds alone.  The nonstandard monomials
span an ideal, so a monomial dropped early could only have yielded
nonstandard monomials later.  A chosen power becomes y_i^{a_i}, which is
not standard, so it drops out.  Nothing is ever expanded in the original
coordinates.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import NotArtinianError
from .frozen import Frozen
from .linalg import IntRowBasis, clear_row_to_int, rank_mod_prime
from .poly import Exponents, GradedPoly, LinearForm, basis_size, exponent_vectors

IntTerms = tuple[tuple[Exponents, int], ...]
# a generator given as a polynomial, or as a power (form, k) of a linear form
Generator = GradedPoly | tuple[LinearForm, int]


def _codes(monomials: Iterable[Exponents], weights: Sequence[int]) -> list[int]:
    """The integer code sum_i u_i w_i of each exponent vector u, for w_i = radix^i."""
    return [sum(map(mul, u, weights)) for u in monomials]


def shifted_rows(terms: Sequence[tuple[int, int]], shifts: Iterable[int], target: dict[int, int]) -> list[list[int]]:
    """Rows for monomial multiples: one row per shift monomial.

    Monomials are integer codes in one radix above every exponent, so the
    code of a product of monomials is the sum of their codes.  ``terms``
    lists the (code, coefficient) pairs of a polynomial; the row for shift
    s is the coefficient vector of s * poly over the monomials indexed by
    ``target``.  Products missing from ``target`` are dropped, which
    projects onto the standard monomials, and a row is dropped when all of
    its products are.
    """
    width = len(target)
    get = target.get
    out = []
    for s in shifts:
        row = None
        for code, c in terms:
            j = get(code + s)
            if j is not None:
                if row is None:
                    row = [0] * width
                row[j] = c
        if row is not None:
            out.append(row)
    return out


class GradedIdeal(Frozen):
    """Homogeneous ideal given by generators, each a polynomial or a power.

    A power of a linear form stays the pair ``(form, k)``: it is never
    expanded in the original coordinates, and its form is what picks the
    normalized coordinates and what restriction to a hyperplane cuts.  The
    quotient by the ideal is ``algebra``, built on first use and kept for
    the ideal's lifetime, so every caller holding the ideal shares its pieces.
    """

    _fields = ("num_vars", "generators")
    num_vars: int
    generators: tuple[Generator, ...]

    def __init__(self, num_vars: int, generators: tuple[Generator, ...]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        for g in generators:
            base, degree = g if isinstance(g, tuple) else (g, g.degree)
            if base.num_vars != num_vars:
                raise ValueError("generator variable count does not match the ideal")
            if base.is_zero:
                raise ValueError("zero generator")
            if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
                raise ValueError("generators must have a positive integer degree")
        super().__init__(num_vars, generators)

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


class DegreePiece(NamedTuple):
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
        # normalized coordinates: y_k = c_k . x for integer rows c_k (power
        # forms cleared of denominators, then unit vectors); bounds[k] is the
        # exponent of the chosen power y_k^{a_k}, None for a unit vector.  One
        # basis of the rows [c_k | e_k | 0] both picks the c_k and inverts them.
        powers = sorted((g[1], i) for i, g in enumerate(gens) if isinstance(g, tuple))
        candidates = [(a, clear_row_to_int(gens[i][0].coeffs)) for a, i in powers]
        candidates += [(None, [int(i == j) for i in range(n)]) for j in range(n)]
        span = IntRowBasis(2 * n + 1)
        bounds: list[int | None] = []
        for a, c in candidates:
            v = span.reduce(c + [int(k == len(bounds)) for k in range(n)] + [0])
            if any(v[:n]):  # c is independent of the accepted rows
                span.insert(v)
                bounds.append(a)
        self._bounds = tuple(bounds)
        # Reducing [e_j | 0 | 1] subtracts sum_k b_k [c_k | e_k | 0] from a
        # positive multiple s of it until the first block, of rank n, is zero.
        # That leaves [0 | r | s] with r = -b and s e_j = sum_k b_k c_k, that
        # is s x_j = -r . y.  So x = B y / D for row j of B equal to -r D / s
        # and D the lcm of the s: B is a positive multiple of C^-1, C the
        # matrix of the c_k, and a degree-d polynomial only picks up the
        # scalar D^-d, which changes no span.  Rows of B are (k, B_jk) pairs.
        tails = [span.reduce([int(i == j) for i in range(2 * n)] + [1])[n:] for j in range(n)]
        scale = lcm(*(t[-1] for t in tails))
        self._substitution = [
            [(k, -r * (scale // t[-1])) for k, r in enumerate(t[:-1]) if r] for t in tails
        ]
        self._standard_cache: dict[int, list[Exponents]] = {}
        # (degree, exponent vectors, integer coefficients)
        self._others: list[tuple[int, list[Exponents], list[int]]] = []
        for degree, g in zip(self._degrees, gens):
            terms = self._rewrite(g)
            if terms:  # a chosen power, or any generator inside the monomial part, adds nothing
                self._others.append((degree, [w for w, _ in terms], [c for _, c in terms]))

    # -- normalized coordinates ------------------------------------------

    def _standard(self, m: int) -> list[Exponents]:
        """The standard monomials of degree m, in graded-lex (column) order."""
        got = self._standard_cache.get(m)
        if got is None:
            got = self._standard_cache[m] = list(exponent_vectors(self.num_vars, m, self._bounds))
        return got

    def _rewrite(self, g: Generator) -> IntTerms:
        """Primitive integer multiple of g in normalized coordinates, projected.

        g is read as a sum of products of linear forms in y: a power
        (form, k) is k copies of its form pushed through B, and a term
        c x^u is c times u_i copies of row i of B.
        """
        sub = self._substitution
        if isinstance(g, tuple):
            form, k = g
            pushed = [0] * self.num_vars
            for c, row in zip(clear_row_to_int(form.coeffs), sub):
                for j, b in row:
                    pushed[j] += c * b
            products = [(1, [[(j, b) for j, b in enumerate(pushed) if b]] * k)]
        else:
            terms = g.terms()
            products = [
                (c, [row for row, e in zip(sub, u) for _ in range(e)])
                for (u, _), c in zip(terms, clear_row_to_int([c for _, c in terms]))
            ]
        acc: dict[Exponents, int] = {}
        for c, forms in products:
            for w, b in self._projected_product(forms).items():
                acc[w] = acc.get(w, 0) + c * b
        content = gcd(*acc.values())
        return tuple((w, c // content) for w, c in acc.items() if c)

    def _projected_product(self, forms: list[list[tuple[int, int]]]) -> dict[Exponents, int]:
        """Product of linear forms in y, each listed as (j, coefficient) pairs,
        projected onto the standard monomials after every factor: raising
        u_j is dropped once it reaches the bound a_j of a bounded coordinate."""
        bounds = self._bounds
        acc = {(0,) * self.num_vars: 1}
        for form in forms:
            step: dict[Exponents, int] = {}
            for v, c in acc.items():
                for j, b in form:
                    a = bounds[j]
                    if a is None or v[j] + 1 < a:
                        w = v[:j] + (v[j] + 1,) + v[j + 1:]
                        step[w] = step.get(w, 0) + c * b
            acc = step
        return acc

    # -- graded pieces -------------------------------------------------

    def spanning_rows(self, m: int) -> list[list[int]]:
        """Integer rows spanning the degree-m ideal piece modulo its monomial part.

        Monomials are coded in radix m + 1; no exponent of degree m exceeds
        m, so the codes add without carries.
        """
        weights = [(m + 1) ** i for i in range(self.num_vars)]
        target = {code: j for j, code in enumerate(_codes(self._standard(m), weights))}
        rows: list[list[int]] = []
        for degree, exps, coeffs in self._others:
            if degree <= m:
                terms = list(zip(_codes(exps, weights), coeffs))
                rows.extend(shifted_rows(terms, _codes(self._standard(m - degree), weights), target))
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
            # exceeds either count: only a smaller one needs exact elimination
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
