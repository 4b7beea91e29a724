"""Independent brute-force implementations used only by the test suite.

Everything here is written from scratch against the definitions, on purpose
in a different style from the package: polynomials are plain dicts from
exponent tuples to Fractions, monomials are enumerated by stars-and-bars in
a different order, and ranks come from textbook Gaussian elimination over
Fraction.  Agreement between these and the package is the point of the
tests, so nothing below may import package internals beyond constructors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


# -- naive exact linear algebra -----------------------------------------


def frac_rank(rows):
    """Gaussian elimination rank over Fraction, no pivoting cleverness."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while col < ncols and rank < len(work):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col] / pivot
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def frac_solveable(rows, target):
    """Is target in the row span?  Rank comparison, nothing subtle."""
    base = [list(r) for r in rows]
    return frac_rank(base) == frac_rank(base + [list(target)])


# -- dict polynomials ----------------------------------------------------


def dict_linear(coeffs):
    """Linear form as a dict polynomial."""
    n = len(coeffs)
    out = {}
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            exps = tuple(1 if j == i else 0 for j in range(n))
            out[exps] = c
    return out


def dict_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            val = out.get(key, Fraction(0)) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def dict_pow(f, k):
    out = None
    for _ in range(k):
        out = dict(f) if out is None else dict_mul(out, f)
    if out is None:
        raise ValueError("k must be at least 1")
    return out


def dict_from_graded(poly):
    """Convert a package GradedPoly to the dict shape (constructor-only use)."""
    return dict(poly.items)


# -- naive graded pieces of an ideal -------------------------------------


def monomials(num_vars, degree):
    """All exponent tuples of the given degree, combinations order."""
    out = []
    for slots in itertools.combinations_with_replacement(range(num_vars), degree):
        exps = [0] * num_vars
        for s in slots:
            exps[s] += 1
        out.append(tuple(exps))
    return out


def vectorize(poly_dict, basis_index):
    vec = [Fraction(0)] * len(basis_index)
    for exps, c in poly_dict.items():
        vec[basis_index[exps]] = c
    return vec


def ideal_rows(gen_dicts, gen_degrees, num_vars, m):
    """Spanning rows of the degree-m piece: monomial multiples of generators."""
    basis = monomials(num_vars, m)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for g, d in zip(gen_dicts, gen_degrees):
        if d > m:
            continue
        for shift in monomials(num_vars, m - d):
            shifted = {
                tuple(a + b for a, b in zip(exps, shift)): c for exps, c in g.items()
            }
            rows.append(vectorize(shifted, index))
    return rows, index


def naive_ideal_dim(gen_dicts, gen_degrees, num_vars, m):
    rows, _ = ideal_rows(gen_dicts, gen_degrees, num_vars, m)
    return frac_rank(rows)


def naive_quotient_dim(gen_dicts, gen_degrees, num_vars, m):
    total = len(monomials(num_vars, m))
    return total - naive_ideal_dim(gen_dicts, gen_degrees, num_vars, m)


def naive_hilbert(gen_dicts, gen_degrees, num_vars, bound):
    """Quotient dimensions up to the first zero; None if none found by bound."""
    dims = []
    for m in range(bound + 1):
        d = naive_quotient_dim(gen_dicts, gen_degrees, num_vars, m)
        if d == 0:
            return tuple(dims)
        dims.append(d)
    return None


def naive_membership(gen_dicts, gen_degrees, num_vars, f_dict, f_degree):
    """Is f in the ideal?  Degree-f piece row-span test."""
    rows, index = ideal_rows(gen_dicts, gen_degrees, num_vars, f_degree)
    target = vectorize(f_dict, index)
    if not any(target):
        return True
    if not rows:
        return False
    return frac_solveable(rows, target)


def frac_rref(rows):
    """Reduced row echelon form with its pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    pivots = []
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        work[rank] = [a / pivot for a in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def _coset_coordinates(vec, rref_rows, pivots, ncols):
    """Coordinates of vec + (row space) on the non-pivot monomials."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    pivot_set = set(pivots)
    return [v[j] for j in range(ncols) if j not in pivot_set]


def naive_multiplication_rank(gen_dicts, gen_degrees, num_vars, g_dict, g_degree, m):
    """Rank of multiplication by g from quotient degree m to m + deg g.

    Route: explicit coset coordinates.  Pick the standard-monomial basis of
    each quotient piece (non-pivot monomials of the ideal's reduced echelon
    form), push every source basis monomial through g, reduce, and take the
    rank of the resulting coordinate matrix.
    """
    target_degree = m + g_degree
    src_rows, src_index = ideal_rows(gen_dicts, gen_degrees, num_vars, m)
    src_rref, src_pivots = frac_rref(src_rows)
    src_standard = [
        e for e in monomials(num_vars, m) if src_index[e] not in set(src_pivots)
    ]

    tgt_rows, tgt_index = ideal_rows(gen_dicts, gen_degrees, num_vars, target_degree)
    tgt_rref, tgt_pivots = frac_rref(tgt_rows)
    ncols = len(tgt_index)

    image = []
    for exps in src_standard:
        shifted = {
            tuple(a + b for a, b in zip(e, exps)): c for e, c in g_dict.items()
        }
        vec = vectorize(shifted, tgt_index)
        image.append(_coset_coordinates(vec, tgt_rref, tgt_pivots, ncols))
    if not image or not image[0]:
        return 0
    return frac_rank(image)


# -- best of several sampled forms ----------------------------------------


def naive_best_of_attempts(gen_dicts, gen_degrees, num_vars, forms, strong):
    """The Lefschetz verdict from the full rank table of each sampled form.

    ``forms`` are coefficient lists in the order drawn.  The weak check
    multiplies by each form, the strong one by each of its powers up to the
    socle degree.  Every form gets its whole table.  The first form with no
    miss holds at once; otherwise the form with the fewest misses is
    reported, the earliest on a tie, after every form was tried.  Returns
    (holds, attempts used, form, hilbert function, records), a record being
    (power, degree, source dim, target dim, rank).
    """
    hf = naive_hilbert(gen_dicts, gen_degrees, num_vars, num_vars * max(gen_degrees) + 1)
    top = len(hf) - 1
    best = None
    for tried, coeffs in enumerate(forms, 1):
        records = []
        for k in range(1, (top if strong else 1) + 1):
            g = dict_pow(dict_linear(coeffs), k)
            for m in range(top - k + 1):
                rank = naive_multiplication_rank(gen_dicts, gen_degrees, num_vars, g, k, m)
                records.append((k, m, hf[m], hf[m + k], rank))
        misses = sum(1 for *_, src, tgt, rank in records if rank < min(src, tgt))
        if misses == 0:
            return True, tried, list(coeffs), hf, records
        if best is None or misses < best[0]:
            best = (misses, list(coeffs), records)
    return False, len(forms), best[1], hf, best[2]


# -- powers of five to seven linear forms in four variables, by fat points ------
#
# By Emsalem-Iarrobino, the degree-j piece of R / (L_1^{a_1}, ..., L_r^{a_r})
# has the dimension of the degree-j forms vanishing to order j - a_i + 1 at
# the point dual to each L_i.  Multiplication by l into degree j has rank
# h_A(j) - dim (R / (I, l))_j, and R / (I, l) is the quotient by the powers
# of the L_i cut to the plane l = 0: fat points in P^2.


def det(matrix):
    """Determinant by expansion along the first row; for the small matrices here."""
    if not matrix:
        return 1
    minors = ([row[:j] + row[j + 1:] for row in matrix[1:]] for j in range(len(matrix)))
    return sum((-1) ** j * a * det(minor) for j, (a, minor) in enumerate(zip(matrix[0], minors)) if a)


def cut_to_plane(form, ell):
    """The coefficients of the form cut to the plane ell = 0, in the other
    three variables: x_k = -sum_{i != k} ell_i x_i / ell_k solves ell = 0
    for its first nonzero coefficient, times ell_k."""
    k = next(i for i, c in enumerate(ell) if c)
    return [ell[k] * a - form[k] * c for i, (a, c) in enumerate(zip(form, ell)) if i != k]


def general_on(forms, ell):
    """Are the points the forms cut on the plane ell = 0 in general position
    for Cremona reduction: distinct, no three on a line and, for six or
    seven, no six on a conic?  Three points lie on a line when their 3 x 3
    determinant vanishes, six on a conic when the 6 x 6 determinant of
    their degree-2 monomials does.  Eight points would also need no cubic
    through all of them singular at one."""
    points = [cut_to_plane(form, ell) for form in forms]
    if not all(det(list(three)) for three in itertools.combinations(points, 3)):
        return False
    if len(points) < 6:
        return True
    return all(
        det([[x * x, y * y, z * z, x * y, x * z, y * z] for x, y, z in six])
        for six in itertools.combinations(points, 6)
    )


def fat_points_p2(degree, multiplicities):
    """Dimension of the degree-``degree`` forms in three variables vanishing
    to the given orders at at most seven points of P^2 in general position
    (no three on a line, and no six on a conic).

    Cremona reduction.  A line through two points whose orders add up past
    the degree is a fixed component: it is split off, lowering the degree
    and both orders by one.  Three points whose orders add up past the
    degree are the base of a quadratic transformation, which keeps the
    dimension.  For at most eight points, general position is a property
    of the blown-up surface (a del Pezzo surface), so the transformation
    keeps it too.  What is left is in standard form, and for at most eight
    points in general position a standard system is non-special: its
    dimension is the expected one.
    """
    d = degree
    ms = sorted((m for m in multiplicities if m > 0), reverse=True)
    if len(ms) > 7:
        raise ValueError("general position is checked here only up to seven points")
    while True:
        if d < 0 or (ms and ms[0] > d):
            return 0
        if len(ms) >= 2 and ms[0] + ms[1] > d:
            d, ms[0], ms[1] = d - 1, ms[0] - 1, ms[1] - 1
        elif len(ms) >= 3 and ms[0] + ms[1] + ms[2] > d:
            k = d - ms[0] - ms[1] - ms[2]
            d, ms[0], ms[1], ms[2] = d + k, ms[0] + k, ms[1] + k, ms[2] + k
        else:
            return max(0, comb(d + 2, 2) - sum(comb(m + 1, 2) for m in ms))
        ms = sorted((m for m in ms if m > 0), reverse=True)


def fat_point_rank(exponents, target_degree, target_dim):
    """Rank of multiplication by l into degree j = ``target_degree`` on
    R / (L_i^{a_i}) in four variables, h_A(j) = ``target_dim``, when the
    L_i cut points on l = 0 in general position (``general_on``)."""
    j = target_degree
    return target_dim - fat_points_p2(j, [max(j - a + 1, 0) for a in exponents])
