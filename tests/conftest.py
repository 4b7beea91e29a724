"""Shared builders for the test suite."""

from __future__ import annotations

from wlpcheck import GradedIdeal, linear_form
from wlpcheck.poly import expand_power
from wlpcheck.rng import stream


def powers_ideal(*pairs):
    """Ideal of powers from ((coeff, ...), exponent) pairs."""
    return GradedIdeal.from_powers(
        (linear_form(coeffs), power) for coeffs, power in pairs
    )


def expanded(ideal):
    """The generators as polynomials in the original coordinates, for the oracles."""
    return [expand_power(*g) if isinstance(g, tuple) else g for g in ideal.generators]


def seeded_forms(num_vars: int, count: int, seed: int, index: int = 0, bound: int = 50):
    """Deterministic pairwise non-proportional integer forms."""
    rng = stream(seed, index)
    forms = []
    tries = 0
    while len(forms) < count:
        tries += 1
        if tries > 10000:
            raise RuntimeError("could not sample enough distinct forms")
        coeffs = tuple(rng.integer(-bound, bound) for _ in range(num_vars))
        candidate = linear_form(coeffs)
        if candidate.is_zero:
            continue
        if any(candidate.proportional_to(f) for f in forms):
            continue
        forms.append(candidate)
    return forms


def seeded_power_ideal(degrees, seed: int, index: int = 0, num_vars: int = 3):
    """Power ideal with deterministic pseudo-random distinct base forms."""
    forms = seeded_forms(num_vars, len(degrees), seed, index)
    return GradedIdeal.from_powers(zip(forms, degrees))
