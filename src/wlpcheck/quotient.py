"""Graded Artinian quotients of a polynomial ring, degree by degree.

A :class:`GradedIdeal` lists its generators in one format: a polynomial,
or a power ``(form, k)`` of a linear form.  Its quotient is the
:class:`QuotientAlgebra` in ``ideal.algebra``, built on first use and owned
by the ideal, so it lives exactly as long as the ideal does.  The algebra
computes one graded piece at a time: the row space of the ideal in that
degree, its exact rank, and therefore the dimension of the quotient piece.
A piece is kept as that one integer; its rows and any echelon basis are
dropped once the rank is read.  The rank is
:func:`wlpcheck.linalg.exact_rank` of the piece's integer rows, built once,
or of their projection into a shared cokernel (below), so every number
that leaves this module is exact.  Rows are built from
monomial codes: an exponent vector u is the integer sum_i u_i w_i for
mixed-radix weights w, and a monomial multiple adds one code to another,
with no carry since each radix is above every exponent a product of two
standard monomials can reach.

Every question about the quotient is answered by dimensions of pieces.
:func:`multiplication_rank` gives the rank of multiplication by g out of
degree m as the drop from the quotient by I to the quotient by I + (g) in
degree m + deg g.  Membership is its m = 0 case: f lies in the ideal
exactly when multiplication by f is zero on the degree-0 piece.

Pieces are computed in normalized coordinates.  When the algebra is built
it picks a maximal linearly independent set of the power generators'
forms L_1, ..., L_k (smallest exponents first, ties by generator order),
each one kept when inserting it into an echelon basis raises the rank, and
completes them to a basis with the unit vectors e_j at the columns j where
no picked row has its pivot.  The change of basis is inverted by the same
elimination: the rows [c_k | e_k], cleared at each other's pivots by
:meth:`wlpcheck.linalg.IntRowBasis.reduced`, become [d_k e_k | a_k] with
a_k equal to d_k times row k of the inverse.  In the coordinates
y_i = L_i the chosen powers become the monomials y_i^{a_i}, so the monomial
part of every graded piece is counted rather than eliminated: only the
standard monomials, those with u_i < a_i for every bounded coordinate, are
columns, and only the remaining generators, rewritten and projected onto
them, are rows.  A linear change of coordinates is a graded automorphism
of the polynomial ring.  It maps the ideal onto its rewritten form and
multiplication by g onto multiplication by the rewritten g, so Hilbert
functions, ranks of multiplication maps and ideal membership are the same
in both coordinate systems.  Callers only ever see original coordinates.

Every generator but the chosen powers is rewritten in integers and
projected onto the standard monomials.  A chosen power is y_i^{a_i} up to
a scalar, so it lies in the monomial part and is never rewritten.  A
leftover power (form, k) pushes its form through the change of
coordinates and expands the k-th power by the multinomial theorem over
the degree-k standard monomials on the pushed form's support.  A
polynomial is read as a sum of products of linear forms, a term c x^u as
c times u_i copies of x_i for each i, each pushed through the change of
coordinates.  Each product is multiplied out one factor at a time and
projected after every factor, by the exponent bounds alone.  The nonstandard monomials span an
ideal, so a monomial dropped early could only have yielded nonstandard
monomials later.  Nothing is ever expanded in the original coordinates.
The two pushes, :func:`push_form` and :func:`push_poly`, take any integer
substitution: with no bounds, they also cut an ideal to a hyperplane
(:meth:`GradedIdeal.restricted`).

The coordinates are then scaled to a frame.  The first power generator,
in the order the coordinates were picked, whose form pushes to
sum_j p_j y_j with two or more p_j nonzero has each such y_j scaled by
P / p_j, P the lcm of the p_j, so that power becomes (sum_j y_j)^k up to a
scalar.  Scaling the y_j is a graded automorphism that keeps every chosen
power a monomial, so the argument above covers it.  Powers of n + 1
general forms in n variables then have a presentation that depends on
their exponents alone, not on the coefficients of the forms.

A graded piece is a function of the presentation alone: the bounds, one
per variable, and the rewritten generators.  Algebras with the same
presentation share one dict of pieces, so a piece computed for one is
exact for all of them.

The framed power is the first rewritten generator, and the others follow
in generator order.  So the algebras I + (l) of one ideal, for every l
drawn, share their bounds and their first rewritten generator, and differ
only in the last one.  A piece of an algebra with a framed power and
another rewritten generator is therefore ranked in the cokernel of the
framed power's rows, in every degree where it has rows.  That cokernel is
a projection π onto a few coordinates, kept as the sparse integer image
of each column (:meth:`wlpcheck.linalg.IntRowBasis.cokernel`), whose
kernel is exactly the span of those rows.  The rank of all the rows is the
framed power's rank plus the rank of π applied to the other rows, so the
piece is the number of coordinates of π less that rank, and that rank is
:func:`wlpcheck.linalg.exact_rank`, with its screen mod p.  An empty
cokernel makes the piece zero, and the other rows are then never built.
The cokernels are shared, by degree, among the algebras with the same
bounds and framed power, so each I + (l) builds and eliminates only its
own last generator's rows.  An algebra with no framed power shares no
cokernel, and its pieces are ranked whole.

The standard monomials of a degree, their codes and their column indices
form a table that depends on the exponent bounds, one per variable, and
the degree alone.  One table serves every algebra with those bounds
(an ideal's algebra and each I + (l) it adjoins share most of them).  At
most ``STANDARD_TABLES`` tables, and as many sets of shared pieces and of
shared cokernels, are kept, least recently used dropped first.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import GenericityError, NotArtinianError
from .frozen import Frozen
from .linalg import Cokernel, IntRowBasis, exact_rank
from .poly import Exponents, GradedPoly, LinearForm, exponent_vectors

IntTerms = tuple[tuple[Exponents, int], ...]
# a generator given as a polynomial, or as a power (form, k) of a linear form
Generator = GradedPoly | tuple[LinearForm, int]
# the exponent bound a_i of each normalized coordinate, None where there is none
Bounds = tuple[int | None, ...]
# a linear substitution x_i -> sum_j b_ij y_j, row i listing its (j, b_ij) pairs
Substitution = list[list[tuple[int, int]]]
# a rewritten generator that leaves rows: (degree, exponent vectors, coefficients)
Rewritten = tuple[int, tuple[Exponents, ...], tuple[int, ...]]
Others = tuple[Rewritten, ...]

# How many standard-monomial tables, and how many sets of shared pieces and
# of shared cokernels, are kept, least recently used dropped first.  A table
# serves every algebra with the same exponent bounds, a set of pieces every
# algebra with the same presentation, and a set of cokernels every algebra
# with the same bounds and first rewritten generator.
STANDARD_TABLES = 128


def _codes(monomials: Iterable[Exponents], weights: Sequence[int]) -> list[int]:
    """The integer code sum_i u_i w_i of each exponent vector u."""
    return [sum(map(mul, u, weights)) for u in monomials]


def _weights(bounds: Bounds, degree: int) -> tuple[int, ...]:
    """Mixed-radix weights for products landing in ``degree``.

    A product of two standard monomials has u_i <= 2 a_i - 2 in a bounded
    coordinate and u_i <= degree in any other, so digit i in radix 2 a_i - 1,
    or degree + 1, never carries.  The top digit needs no radix, so when
    only the last coordinate is unbounded the weights do not depend on the
    degree.
    """
    weights = []
    w = 1
    for a in bounds:
        weights.append(w)
        w *= degree + 1 if a is None else 2 * a - 1
    return tuple(weights)


class StandardTable(NamedTuple):
    """The standard monomials of one degree: exponent vectors in graded-lex
    (column) order, their codes under ``weights`` and each code's column.
    Tables are shared, so ``columns`` is only ever read."""

    exponents: tuple[Exponents, ...]
    weights: tuple[int, ...]
    codes: tuple[int, ...]
    columns: dict[int, int]


@lru_cache(maxsize=STANDARD_TABLES)
def standard_table(bounds: Bounds, degree: int) -> StandardTable:
    """The degree-``degree`` monomials in len(bounds) variables with
    u_i < bounds[i] wherever a bound is set."""
    exponents = tuple(exponent_vectors(len(bounds), degree, bounds))
    weights = _weights(bounds, degree)
    codes = tuple(_codes(exponents, weights))
    return StandardTable(exponents, weights, codes, {code: j for j, code in enumerate(codes)})


def shifted_rows(terms: Sequence[tuple[int, int]], shifts: Iterable[int], target: dict[int, int]) -> list[list[int]]:
    """Rows for monomial multiples: one row per shift monomial.

    Monomials are integer codes in a mixed radix above every exponent a
    product can reach, so the code of a product is the sum of the codes.
    ``terms`` lists the (code, coefficient) pairs of a polynomial; the row
    for shift s is the coefficient vector of s * poly over the monomials
    indexed by ``target``.  Products missing from ``target`` are dropped,
    which projects onto the standard monomials, and a row is dropped when
    all of its products are.
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


def push_form(coeffs: Sequence[int], substitution: Substitution, num_vars: int) -> list[int]:
    """The coefficients in y of the linear form sum_i coeffs[i] x_i."""
    pushed = [0] * num_vars
    for c, row in zip(coeffs, substitution):
        for j, b in row:
            pushed[j] += c * b
    return pushed


def push_poly(g: GradedPoly, substitution: Substitution, bounds: Bounds) -> dict[Exponents, int]:
    """The terms of g in y, projected onto the monomials with
    u_j < bounds[j] wherever a bound is set.

    g is read as a sum of products of linear forms in y: a term c x^u is c
    times u_i copies of row i of the substitution.  Each product is
    multiplied out one factor at a time and projected after every factor,
    so raising u_j is dropped once it reaches bounds[j]; with every bound
    None it is the plain product.
    """
    acc: dict[Exponents, int] = {}
    for u, c in g.items:
        product = {(0,) * len(bounds): 1}
        for row in (row for row, e in zip(substitution, u) for _ in range(e)):
            step: dict[Exponents, int] = {}
            for v, a in product.items():
                for j, b in row:
                    top = bounds[j]
                    if top is None or v[j] + 1 < top:
                        w = v[:j] + (v[j] + 1,) + v[j + 1:]
                        step[w] = step.get(w, 0) + a * b
            product = step
        for w, a in product.items():
            acc[w] = acc.get(w, 0) + c * a
    return acc


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

    def restricted(self, ell: LinearForm) -> "GradedIdeal":
        """The ideal of the generators that survive on the hyperplane ell = 0.

        Restriction is one more integer substitution.  With c the integer
        coefficients of ell and c_k the first nonzero one, x_k goes to
        -sum_{i != k} c_i y_i and every other x_i to c_k y_i, the y_i being the
        other variables in order.  That is c_k times solving ell = 0 for x_k,
        so a degree-d generator only picks up the factor c_k^d and the ideal
        is the same.  A power (form, k) stays a power of its pushed form.
        """
        if ell.num_vars != self.num_vars or ell.is_zero:
            raise ValueError("restriction needs a nonzero form in the ideal's variables")
        c = ell.coeffs
        k = next(i for i, ci in enumerate(c) if ci)
        rest = c[:k] + c[k + 1:]
        n = len(rest)
        substitution = [[(j, c[k])] for j in range(n)]
        substitution.insert(k, [(j, -ci) for j, ci in enumerate(rest) if ci])
        survivors: list[Generator] = []
        for g in self.generators:
            if isinstance(g, tuple):
                pushed = push_form(g[0].coeffs, substitution, n)
                if any(pushed):
                    survivors.append((LinearForm(pushed), g[1]))
            else:
                cut = GradedPoly(n, g.degree, push_poly(g, substitution, (None,) * n).items())
                if not cut.is_zero:
                    survivors.append(cut)
        if len(survivors) < n:
            # an Artinian ideal in the n cut variables has at least n generators
            raise GenericityError(f"fewer than {n} generators survive the restriction")
        return GradedIdeal(n, tuple(survivors))


@lru_cache(maxsize=STANDARD_TABLES)
def shared_pieces(bounds: Bounds, others: Others) -> dict[int, int]:
    """The dimensions of the graded pieces, by degree, of every algebra with
    this presentation.

    A piece is computed from the bounds, one per variable, and the
    rewritten generators alone, so algebras that agree on them share one
    dict, filled in as pieces are computed.
    """
    return {}


@lru_cache(maxsize=STANDARD_TABLES)
def shared_cokernels(bounds: Bounds, first: Rewritten) -> dict[int, Cokernel]:
    """The cokernel, by degree, of the rows of the framed power, the first
    rewritten generator of every algebra with these bounds that has one: a
    projection π with π(v) = 0 exactly when v lies in the span of those
    rows.  Filled in as pieces are computed.
    """
    return {}


class QuotientAlgebra:
    """Quotient of the polynomial ring by a homogeneous ideal.

    Reached as ``ideal.algebra``.  It keeps the ideal's generators, not
    the ideal, so the ideal alone owns it.  Pieces are computed on demand
    into the dict shared by every algebra with the same presentation.
    ``hilbert_function`` scans degrees upward and stops at the
    first zero piece; the scan is abandoned (NotArtinianError) past the
    socle bound of a complete intersection in the top generator degree,
    which no Artinian quotient can exceed.
    """

    def __init__(self, ideal: GradedIdeal):
        self.num_vars = n = ideal.num_vars
        self.generators = gens = ideal.generators
        self._degrees = ideal.generator_degrees
        # the latest multiplier's base (a form or a polynomial) and the
        # algebras of I + (g) for the multipliers g on it
        self._adjoined: tuple[LinearForm | GradedPoly, dict[Generator, QuotientAlgebra]] | None = None
        # normalized coordinates: y_k = c_k . x for integer rows c_k, the
        # picked power forms and then unit vectors; bounds[k] is the exponent
        # of the chosen power y_k^{a_k}, None for a unit vector, and chosen
        # holds the indices of the chosen powers.  A power form is picked
        # when it is independent of those before it, smallest exponents
        # first, and the unit vectors e_j off the picked forms' pivots
        # complete them to a basis, with no reduction and sparse rows.
        powers = sorted((g[1], i) for i, g in enumerate(gens) if isinstance(g, tuple))
        pick = IntRowBasis(n)
        picked = [(a, i) for a, i in powers if pick.insert(gens[i][0].coeffs)]
        chosen = {i for _, i in picked}
        taken = set(pick.pivots)
        eye = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]
        rows = [gens[i][0].coeffs for _, i in picked] + [eye[j] for j in range(n) if j not in taken]
        self._bounds = tuple([a for a, _ in picked] + [None] * (n - len(picked)))
        # The reduced rows of [C | I], C the matrix of the c_k, are
        # [d_j e_j | a_j] with a_j equal to d_j times row j of C^-1.  So
        # x = B y / D for row j of B equal to (D / d_j) a_j and D the lcm of
        # the d_j: B is a positive multiple of C^-1, and a degree-d polynomial
        # only picks up the scalar D^-d, which changes no span.  Rows of B are
        # (k, B_jk) pairs.
        inverse = IntRowBasis(2 * n)
        for k, c in enumerate(rows):
            inverse.insert([*c, *eye[k]])
        reduced = inverse.reduced()
        scale = lcm(*(row[j] for j, row in enumerate(reduced)))
        substitution = [
            [(k, scale // row[j] * x) for k, x in enumerate(row[n:]) if x] for j, row in enumerate(reduced)
        ]
        # The frame: the first power in pick order whose form pushes to
        # sum_j p_j y_j with two or more p_j nonzero has its y_j scaled by
        # P / p_j, P the lcm of the p_j, so it becomes P^k (sum_j y_j)^k.  A
        # chosen power pushes to a multiple of its y_i, so it is skipped, and
        # the scaling keeps it so.
        framed = None
        for _, i in powers:
            if i in chosen:
                continue
            pushed = push_form(gens[i][0].coeffs, substitution, n)
            nonzero = [p for p in pushed if p]
            if len(nonzero) > 1:
                top = lcm(*nonzero)
                factor = [top // p if p else 1 for p in pushed]
                substitution = [[(k, b * factor[k]) for k, b in row] for row in substitution]
                framed = i
                break
        self._substitution = substitution
        # (degree, exponent vectors, integer coefficients) of every generator
        # that leaves rows, the framed power first, the rest in generator
        # order: with the bounds, the whole presentation
        order = sorted((i for i in range(len(gens)) if i not in chosen), key=lambda i: i != framed)
        rewritten = [(self._degrees[i], self._rewrite(gens[i])) for i in order]
        self._others: Others = tuple(
            (degree, tuple(w for w, _ in terms), tuple(c for _, c in terms))
            for degree, terms in rewritten
            if terms  # a generator inside the monomial part adds nothing
        )
        self._pieces = shared_pieces(self._bounds, self._others)
        # the cokernels of the framed power's rows, which pieces are ranked
        # in when another generator leaves rows too (a framed power inside
        # the monomial part leaves none)
        shared = framed is not None and bool(rewritten[0][1]) and len(self._others) > 1
        self._cokernels = shared_cokernels(self._bounds, self._others[0]) if shared else None

    # -- normalized coordinates ------------------------------------------

    def _standard(self, m: int) -> StandardTable:
        """The standard monomials of degree m, from the shared table."""
        return standard_table(self._bounds, m)

    def _rewrite(self, g: Generator) -> IntTerms:
        """Primitive integer multiple of g in normalized coordinates, projected.

        A power (form, k) pushes its form through B and expands the k-th
        power by the multinomial theorem over the degree-k standard
        monomials on the pushed form's support: the table for the
        algebra's bounds with a bound of 1 off the support.  That is the
        algebra's own table when the support is full, and it never grows
        with coordinates the form misses.  A polynomial goes through
        :func:`push_poly`.
        """
        if isinstance(g, tuple):
            form, k = g
            pushed = push_form(form.coeffs, self._substitution, self.num_vars)
            caps = tuple(a if p else 1 for a, p in zip(self._bounds, pushed))
            top = factorial(k)
            factorials = [factorial(e) for e in range(k + 1)]
            powers = [[p ** e for e in range(k + 1)] for p in pushed]
            acc = {
                v: top // prod(map(factorials.__getitem__, v)) * prod(map(list.__getitem__, powers, v))
                for v in standard_table(caps, k).exponents
            }
        else:
            acc = push_poly(g, self._substitution, self._bounds)
        content = gcd(*acc.values())
        return tuple((w, c // content) for w, c in acc.items() if c)

    # -- graded pieces -------------------------------------------------

    def spanning_rows(self, m: int) -> list[list[int]]:
        """Integer rows spanning the degree-m ideal piece modulo its monomial part."""
        return self._rows(m, self._others)

    def _rows(self, m: int, others: Others) -> list[list[int]]:
        """The degree-m rows of the given rewritten generators.

        The target columns, their codes and the shift monomials come from
        the shared tables; shifts are recoded only when an unbounded
        coordinate that is not the last makes the weights depend on the degree.
        """
        table = self._standard(m)
        weights = table.weights
        rows: list[list[int]] = []
        for degree, exps, coeffs in others:
            if degree <= m:
                terms = list(zip(_codes(exps, weights), coeffs))
                shifts = self._standard(m - degree)
                codes = shifts.codes if shifts.weights == weights else _codes(shifts.exponents, weights)
                rows.extend(shifted_rows(terms, codes, table.columns))
        return rows

    def adjoined(self, g: Generator) -> "QuotientAlgebra":
        """The algebra of I + (g), for g a polynomial or a power (form, k).

        Only those of the latest base, the form of a power or the polynomial
        itself, are kept: the ranks of every power of one form, in every
        source degree and in any order, share one algebra per power.
        """
        base = g[0] if isinstance(g, tuple) else g
        last = self._adjoined
        if last is None or last[0] != base:
            last = self._adjoined = (base, {})
        kept = last[1]
        got = kept.get(g)
        if got is None:
            got = kept[g] = QuotientAlgebra(GradedIdeal(self.num_vars, self.generators + (g,)))
        return got

    def piece(self, m: int) -> int:
        """The dimension of the degree-m quotient piece: the standard
        monomials less the rank of the rows, as the nonstandard monomials
        lie in the ideal."""
        if m < 0:
            raise ValueError("degree must be nonnegative")
        got = self._pieces.get(m)
        if got is None:
            got = self._pieces[m] = self._dimension(m)
        return got

    def _dimension(self, m: int) -> int:
        """The dimension of the degree-m piece, computed.

        A piece of an algebra with a framed power and another generator
        leaving rows is ranked in the shared cokernel π of the framed
        power's rows, once it has rows in degree m: the span of all the rows
        has the framed power's rank plus the rank of π(the other rows), so
        the piece is the width of π less that rank.  Every other piece is
        ranked whole.
        """
        others = self._others
        ncols = len(self._standard(m).exponents)
        if self._cokernels is None or others[0][0] > m:
            return ncols - exact_rank(self.spanning_rows(m), ncols)
        cokernel = self._cokernels.get(m)
        if cokernel is None:
            basis = IntRowBasis(ncols)
            basis.extend(self._rows(m, others[:1]))
            cokernel = self._cokernels[m] = basis.cokernel()
        if not cokernel.width:
            return 0
        projected = cokernel.project(self._rows(m, others[1:]))
        return cokernel.width - exact_rank(projected, cokernel.width)

    # -- Hilbert function ----------------------------------------------

    def _scan_bound(self) -> int:
        return self.num_vars * (max(self._degrees) - 1) + 1

    def hilbert_function(self) -> tuple[int, ...]:
        """Dimensions (h_0, ..., h_s) with h_s the last nonzero value."""
        if None in self._bounds and all(isinstance(g, tuple) for g in self.generators):
            raise NotArtinianError(
                "the linear forms do not span, so the quotient has positive dimension"
            )
        dims: list[int] = []
        bound = self._scan_bound()
        for m in range(bound + 1):
            d = self.piece(m)
            if d == 0:
                return tuple(dims)
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

        The m = 0 case of :func:`multiplication_rank`: f is in the ideal
        exactly when multiplication by f is zero on the degree-0 piece.  A
        nonzero constant never is, as every generator has positive degree.
        """
        if f.degree == 0 and not f.is_zero and f.num_vars == self.num_vars:
            return False
        return multiplication_rank(self, f, 0) == 0


def multiplication_rank(alg: QuotientAlgebra, g: Generator, m: int) -> int:
    """Exact rank of multiplication by g out of the degree-m quotient piece.

    g is a polynomial or a power ``(form, k)`` of a linear form.  The image
    of g times the degree-m piece is (I + gR) / I in degree m + deg g, so
    the rank is the drop in dimension from A to the quotient by I + (g).
    """
    base, degree = g if isinstance(g, tuple) else (g, g.degree)
    if base.num_vars != alg.num_vars:
        raise ValueError("variable count does not match")
    if base.is_zero:
        return 0
    target = m + degree
    target_dim = alg.piece(target)
    if alg.piece(m) == 0 or target_dim == 0:
        return 0
    return target_dim - alg.adjoined(g).piece(target)
