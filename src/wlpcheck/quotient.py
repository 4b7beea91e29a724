"""Graded Artinian quotients of a polynomial ring, degree by degree.

The central object is :class:`QuotientAlgebra`, which computes one graded
piece at a time: the row space of the ideal in that degree, its exact rank,
and therefore the dimension of the quotient piece.  Ranks go through a
modular fast path first; a rank modulo the working prime that reaches the
number of rows or of columns is already a certificate, anything less is
recomputed exactly, so every number that leaves this module is exact.

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
standard monomials only.  Other polynomials are rewritten monomial by
monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import NotArtinianError
from .linalg import IntRowBasis, clear_row_to_int, rank_mod_prime
from .poly import GradedPoly, LinearForm, basis_size, expand_power, monomial_basis, multinomial

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
    """Homogeneous ideal given by generators; remembers pure-power structure.

    ``power_parts[i]`` is ``(form, exponent)`` when generator i was supplied
    as a power of a linear form, else None.  The structure is used to pick
    normalized coordinates and for restriction to a hyperplane.
    """

    num_vars: int
    generators: tuple[GradedPoly, ...]
    power_parts: tuple[tuple[LinearForm, int] | None, ...] = ()

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for g in self.generators:
            if g.num_vars != self.num_vars:
                raise ValueError("generator variable count does not match the ideal")
            if g.is_zero:
                raise ValueError("zero generator")
            if g.degree < 1:
                raise ValueError("generators must have positive degree")
        if not self.power_parts:
            object.__setattr__(self, "power_parts", (None,) * len(self.generators))
        elif len(self.power_parts) != len(self.generators):
            raise ValueError("power_parts length does not match generators")

    @classmethod
    def from_powers(cls, pairs: Iterable[tuple[LinearForm, int]]) -> "GradedIdeal":
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("need at least one generator")
        num_vars = pairs[0][0].num_vars
        gens = tuple(expand_power(form, power) for form, power in pairs)
        return cls(num_vars, gens, pairs)

    @classmethod
    def from_polys(cls, polys: Iterable[GradedPoly]) -> "GradedIdeal":
        polys = tuple(polys)
        if not polys:
            raise ValueError("need at least one generator")
        return cls(polys[0].num_vars, polys)

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    @property
    def all_powers(self) -> bool:
        return all(p is not None for p in self.power_parts)

    def restricted(self, ell: LinearForm) -> "GradedIdeal":
        """Image ideal in the coordinate ring of the hyperplane ell = 0.

        Generators restricting to zero are dropped; powers stay powers.
        Raises ValueError when every generator dies (the zero ideal is not
        representable here and such a restriction is degenerate anyway).
        """
        from .poly import restrict_linear_form, restrict_mod_linear

        gens: list[GradedPoly] = []
        parts: list[tuple[LinearForm, int] | None] = []
        for g, part in zip(self.generators, self.power_parts):
            if part is not None:
                form, power = part
                cut = restrict_linear_form(form, ell)
                if cut.is_zero:
                    continue
                gens.append(expand_power(cut, power))
                parts.append((cut, power))
            else:
                cut_poly = restrict_mod_linear(g, ell)
                if cut_poly.is_zero:
                    continue
                gens.append(cut_poly)
                parts.append(None)
        if not gens:
            raise ValueError("every generator restricts to zero")
        return GradedIdeal(self.num_vars - 1, tuple(gens), tuple(parts))


class DegreePiece:
    """One graded piece: ideal row space and quotient dimension in one degree.

    The ideal's projection onto the standard monomials of the algebra's
    normalized coordinates is spanned by ``ncols``-wide integer rows;
    ``ambient_dim`` and ``ideal_rank`` count all monomials of the degree,
    the monomial part included.  A piece whose rank was certified without
    elimination keeps its spanning rows and echelonizes them only when
    ``contains`` first needs a basis.
    """

    __slots__ = ("degree", "ambient_dim", "ideal_rank", "_ncols", "_rows", "_basis")

    def __init__(
        self,
        degree: int,
        ambient_dim: int,
        ideal_rank: int,
        ncols: int,
        rows: list[list[int]] | None = None,
        basis: IntRowBasis | None = None,
    ):
        self.degree = degree
        self.ambient_dim = ambient_dim
        self.ideal_rank = ideal_rank
        self._ncols = ncols
        self._rows = rows  # spanning rows, until a basis is built from them
        self._basis = basis

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.ideal_rank

    @property
    def full(self) -> bool:
        return self.ideal_rank == self.ambient_dim

    def contains(self, int_vector: Sequence[int]) -> bool:
        if self.full:
            return True
        if self._basis is None:
            self._basis = IntRowBasis(self._ncols)
            self._basis.extend(self._rows)
            self._rows = None
        return self._basis.contains(int_vector)


class QuotientAlgebra:
    """Quotient of the polynomial ring by a homogeneous ideal.

    ``extra`` adjoins further generators to ``ideal``, each a polynomial or
    a power ``(form, k)``; a power is only ever expanded in normalized
    coordinates.  Pieces are computed on demand and cached.
    ``hilbert_function`` scans degrees upward and stops at the first zero
    piece; the scan is abandoned (NotArtinianError) past the socle bound of
    a complete intersection in the top generator degree, which no Artinian
    quotient can exceed.
    """

    def __init__(self, ideal: GradedIdeal, extra: tuple[Generator, ...] = ()):
        self.ideal = ideal
        self.num_vars = n = ideal.num_vars
        self._extra = extra
        # generator i as (polynomial, None) or (None, (form, exponent))
        gens = list(zip(ideal.generators, ideal.power_parts))
        for g in extra:
            if isinstance(g, tuple):
                gens.append((None, g))
                g = g[0]
            else:
                gens.append((g, None))
            if g.num_vars != n:
                raise ValueError("variable count does not match")
        self._degrees = tuple(part[1] if part else poly.degree for poly, part in gens)
        self._all_powers = all(part for _, part in gens)
        self._pieces: dict[int, DegreePiece] = {}
        self._hilbert: tuple[int, ...] | None = None
        self._adjoined: tuple[Generator, QuotientAlgebra] | None = None
        # normalized coordinates: y_i = coords[i]; bounds[i] is the exponent
        # of the chosen power y_i^{a_i}, None for a completing unit vector
        span = IntRowBasis(n)
        coords: list[Sequence[Fraction]] = []
        bounds: list[int | None] = []
        chosen: set[int] = set()
        for a, i in sorted((part[1], i) for i, (_, part) in enumerate(gens) if part):
            form = gens[i][1][0]
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
        for i, (poly, part) in enumerate(gens):
            if i not in chosen:
                terms = self._power_terms(*part) if part else self._rewrite(poly)
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
        """The quotient by this ideal plus g, a polynomial or a power (form, k).

        Only the latest one is kept, so the ranks of one multiplier in every
        source degree share its pieces.
        """
        last = self._adjoined
        if last is None or last[0] != g:
            last = self._adjoined = (g, QuotientAlgebra(self.ideal, self._extra + (g,)))
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
        counted = ambient - ncols  # nonstandard monomials lie in the ideal
        rows = self.spanning_rows(m)
        rank = rank_mod_prime(rows, ncols) if rows else 0
        if rank == min(len(rows), ncols):
            # a rank mod p never exceeds the rational rank, which never
            # exceeds either count: this is the exact rank
            return DegreePiece(m, ambient, counted + rank, ncols, None if rank == ncols else rows)
        basis = IntRowBasis(ncols)
        basis.extend(rows)
        return DegreePiece(m, ambient, counted + basis.rank, ncols, basis=basis)

    def dimension(self, m: int) -> int:
        return self.piece(m).dim

    # -- Hilbert function ----------------------------------------------

    def _scan_bound(self) -> int:
        return self.num_vars * (max(self._degrees) - 1) + 1

    def hilbert_function(self) -> tuple[int, ...]:
        """Dimensions (h_0, ..., h_s) with h_s the last nonzero value."""
        if self._hilbert is not None:
            return self._hilbert
        if None in self._bounds and self._all_powers:
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
        if f.num_vars != self.num_vars:
            raise ValueError("variable count does not match")
        if f.is_zero:
            return True
        rows = shifted_rows(self._rewrite(f), [(0,) * self.num_vars], self._standard(f.degree))
        return not rows or self.piece(f.degree).contains(rows[0])


@lru_cache(maxsize=256)
def algebra(ideal: GradedIdeal) -> QuotientAlgebra:
    """Shared per-ideal algebra so piece computations are reused."""
    return QuotientAlgebra(ideal)
