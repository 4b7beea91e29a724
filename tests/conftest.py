"""Shared builders for the test suite."""

from __future__ import annotations

from itertools import islice

import pytest

from oracles import dict_from_graded, dict_linear, dict_mul, dict_pow
from wlpcheck import GradedIdeal, linear_form
from wlpcheck.poly import GradedPoly
from wlpcheck.quotient import shared_cokernels, shared_pieces, standard_table
from wlpcheck.rng import distinct_forms, stream


@pytest.fixture(autouse=True)
def fresh_shared_caches():
    """Each test starts with no shared pieces, cokernels or standard tables,
    so what it counts is its own work, and a rank that a monkeypatched test
    got wrong on purpose cannot reach a later test."""
    shared_pieces.cache_clear()
    shared_cokernels.cache_clear()
    standard_table.cache_clear()


def powers_ideal(*pairs):
    """Ideal of powers from ((coeff, ...), exponent) pairs."""
    return GradedIdeal.from_powers(
        (linear_form(coeffs), power) for coeffs, power in pairs
    )


def expand_power(form, k):
    """form**k multiplied out by the dict oracle, as a GradedPoly."""
    return GradedPoly(form.num_vars, k, dict_pow(dict_linear(form.coeffs), k).items())


def times(f, g):
    """The product f*g multiplied out by the dict oracle, as a GradedPoly."""
    return GradedPoly(f.num_vars, f.degree + g.degree, dict_mul(dict_from_graded(f), dict_from_graded(g)).items())


def combine(*pairs):
    """The sum of c*f over the (c, f) pairs, one degree, as a GradedPoly:
    the constructor adds the repeated exponent vectors."""
    first = pairs[0][1]
    return GradedPoly(first.num_vars, first.degree, [(e, c * a) for c, f in pairs for e, a in f.items])


def expanded(ideal):
    """The generators as polynomials in the original coordinates, for the oracles."""
    return [expand_power(*g) if isinstance(g, tuple) else g for g in ideal.generators]


def seeded_forms(num_vars: int, count: int, seed: int, index: int = 0, bound: int = 50):
    """Deterministic pairwise non-proportional integer forms."""
    return list(islice(distinct_forms(stream(seed, index), num_vars, bound), count))


def seeded_power_ideal(degrees, seed: int, index: int = 0, num_vars: int = 3):
    """Power ideal with deterministic pseudo-random distinct base forms."""
    forms = seeded_forms(num_vars, len(degrees), seed, index)
    return GradedIdeal.from_powers(zip(forms, degrees))
