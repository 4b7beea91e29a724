"""Acceptance gate: nine top-level criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every check is exact (integer/rational arithmetic), so
there are no tolerances anywhere; the only numeric limits are runtimes.
"""

from __future__ import annotations

import itertools
import time

from conftest import expand_power, expanded, powers_ideal, seeded_forms, seeded_power_ideal
from oracles import dict_from_graded, naive_hilbert
from wlpcheck import (
    GradedIdeal,
    linear_form,
    predicted_splitting_type,
    run_random_trials,
    slp_check,
    splitting_type_at,
    wlp_check,
)
from wlpcheck.binary import (
    binary_power_resolution,
    minimal_power_degrees,
    power_syzygy_shifts,
    syzygy_shifts_from_hilbert,
)
from wlpcheck.lefschetz import multiplication_rank
from wlpcheck.poly import GradedPoly, basis_size
from wlpcheck.quotient import QuotientAlgebra
from wlpcheck.rng import TrialConfig
from wlpcheck.splitting import restriction_h1, syzygy_h2

GRID_SEED = 20100601


def _pass(line: str) -> None:
    print(f"PASS {line}")


def _mixed_quintics() -> GradedIdeal:
    base = powers_ideal(((1, 0, 0), 5), ((0, 1, 0), 5), ((0, 0, 1), 5))
    return GradedIdeal(
        3,
        base.generators
        + (GradedPoly.monomial(3, (2, 1, 1)), GradedPoly.monomial(3, (1, 2, 1))),
    )


def _sorted_tuples(min_len, max_len, max_value):
    for length in range(min_len, max_len + 1):
        yield from itertools.combinations_with_replacement(
            range(1, max_value + 1), length
        )


def test_criterion_1_quintics_with_monomials_fail_once():
    start = time.monotonic()
    report = wlp_check(_mixed_quintics())
    assert report.hilbert == (1, 3, 6, 10, 13, 13, 10, 6, 3)
    assert not report.holds
    assert report.failures == ((1, 4),)
    bad = [r for r in report.records if not r.maximal]
    assert [(b.degree, b.source_dim, b.target_dim) for b in bad] == [(4, 13, 13)]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(
        "criterion 1: quintics-and-monomials ideal has Hilbert function "
        f"(1,3,6,10,13,13,10,6,3) and fails maximal rank only at 13->13, degree 4 "
        f"({elapsed:.2f}s < 5s)"
    )


def test_criterion_2_four_variable_cubes_fail():
    start = time.monotonic()
    ideal = powers_ideal(
        ((1, 0, 0, 0), 3),
        ((0, 1, 0, 0), 3),
        ((0, 0, 1, 0), 3),
        ((0, 0, 0, 1), 3),
        ((1, 1, 1, 1), 3),
    )
    report = wlp_check(ideal)
    assert report.hilbert == (1, 4, 10, 15, 15, 6)
    assert not report.holds
    assert report.failures == ((1, 3),)
    bad = [r for r in report.records if not r.maximal]
    assert [(b.degree, b.source_dim, b.target_dim) for b in bad] == [(3, 15, 15)]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _pass(
        "criterion 2: five general cubes in four variables give "
        f"(1,4,10,15,15,6) and fail maximal rank only at 15->15, degree 3 "
        f"({elapsed:.2f}s < 10s)"
    )


def test_criterion_3_hundred_random_ideals_sweep():
    start = time.monotonic()
    config = TrialConfig(count=100, seed=GRID_SEED)
    report = run_random_trials(config)
    assert len(report.results) == 100
    assert report.all_wlp, [r.index for r in report.results if not r.wlp_holds]
    assert report.all_consistent, [
        r.index for r in report.results if not r.consistent
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _pass(
        "criterion 3: 100/100 seeded random three-variable power ideals have the "
        f"weak Lefschetz property and both rank routes agree row-by-row "
        f"({elapsed:.2f}s < 120s)"
    )


def test_criterion_4_minimal_generator_formula_equals_membership():
    start = time.monotonic()
    checked = 0
    for exponents in _sorted_tuples(2, 5, 6):
        for draw in range(5):
            forms = seeded_forms(
                2, len(exponents), GRID_SEED, index=hash(exponents) % 100000 + draw
            )
            kept_pairs = []
            kept_exps = []
            for form, a in zip(forms, exponents):
                m = len(kept_exps)
                formula_minimal = m < 2 or (m - 1) * a <= sum(kept_exps) - m
                if m == 0:
                    oracle_minimal = True
                else:
                    prefix = QuotientAlgebra(GradedIdeal.from_powers(kept_pairs))
                    oracle_minimal = not prefix.contains(expand_power(form, a))
                assert formula_minimal == oracle_minimal, (exponents, draw, a)
                if formula_minimal:
                    kept_pairs.append((form, a))
                    kept_exps.append(a)
                checked += 1
            assert tuple(kept_exps) == minimal_power_degrees(exponents)
    elapsed = time.monotonic() - start
    _pass(
        "criterion 4: minimal-generator inequality matches the membership oracle "
        f"on all {checked} (tuple, draw, generator) cases over the exhaustive grid "
        f"(exponent tuples of length 2..5, entries <= 6, 5 draws each; {elapsed:.2f}s)"
    )


def test_criterion_5_resolution_formulas_equal_observed_values():
    start = time.monotonic()
    tuples_checked = 0
    for exponents in _sorted_tuples(2, 5, 6):
        if minimal_power_degrees(exponents) != exponents:
            continue
        ideal = seeded_power_ideal(
            exponents, GRID_SEED, index=200000 + hash(exponents) % 100000, num_vars=2
        )
        alg = QuotientAlgebra(ideal)
        resolution = binary_power_resolution(exponents)
        assert alg.socle_degree() == resolution.socle_degree, exponents
        observed_shifts = syzygy_shifts_from_hilbert(
            exponents, lambda m: basis_size(2, m) - alg.piece(m)
        )
        assert tuple(sorted(observed_shifts)) == tuple(sorted(resolution.shifts)), exponents
        high_count = sum(1 for b in resolution.shifts if b == resolution.socle_degree + 2)
        assert 1 <= high_count <= len(exponents) - 1
        tuples_checked += 1
    elapsed = time.monotonic() - start
    _pass(
        "criterion 5: closed-form socle degree and relation shifts match the "
        f"dimension-count route on all {tuples_checked} minimal tuples of the grid "
        f"({elapsed:.2f}s)"
    )


def test_criterion_6_balanced_splitting_formula_on_the_grid():
    start = time.monotonic()
    binary_checked = 0
    full_checked = 0
    for degrees in _sorted_tuples(2, 5, 7):
        if minimal_power_degrees(degrees) != degrees:
            continue
        n = len(degrees)
        total = sum(degrees)
        socle = (total - n) // (n - 1)
        high = total - (n - 1) * (socle + 1)
        expected = tuple(
            sorted([socle + 1] * (n - 1 - high) + [socle + 2] * high)
        )

        # route one: exact dimension counts of a concrete binary ideal
        ideal2 = seeded_power_ideal(
            degrees, GRID_SEED, index=300000 + hash(degrees) % 100000, num_vars=2
        )
        alg2 = QuotientAlgebra(ideal2)
        observed = syzygy_shifts_from_hilbert(
            degrees, lambda m: basis_size(2, m) - alg2.piece(m)
        )
        assert tuple(sorted(observed)) == expected, degrees
        binary_checked += 1

        # route two: the full pipeline, restricting a three-variable ideal
        if n >= 3:
            ideal3 = seeded_power_ideal(
                degrees, GRID_SEED, index=400000 + hash(degrees) % 100000, num_vars=3
            )
            if ideal3.algebra.is_artinian():
                ell = seeded_forms(
                    3, 1, GRID_SEED, index=500000 + hash(degrees) % 100000
                )[0]
                stype = splitting_type_at(ideal3, ell)
                assert stype.shifts == expected, degrees
                assert stype.restricted_socle == socle, degrees
                full_checked += 1
    elapsed = time.monotonic() - start
    # the minimality condition is restrictive: the grid holds 101 qualifying
    # tuples, 73 of them with enough generators for the three-variable route
    assert binary_checked >= 100
    assert full_checked >= 70
    _pass(
        "criterion 6: the balanced splitting formula (socle+1, socle+2 parts) "
        f"matches exact computation on every qualifying tuple of the grid "
        f"(degrees <= 7, up to 5 generators: {binary_checked} binary checks, "
        f"{full_checked} full three-variable restrictions; {elapsed:.2f}s)"
    )


def test_criterion_7_dimension_identity_chain():
    start = time.monotonic()
    identities = 0
    specs = list(_sorted_tuples(2, 5, 7))
    for degrees in specs:
        stype = predicted_splitting_type(degrees)
        resolution = binary_power_resolution(degrees)
        omega = resolution.socle_degree
        for m in range(omega, max(degrees) + omega + 3):
            direct = sum(max(d - m - 2, 0) for d in degrees)
            telescoped = syzygy_h2(degrees, m) - syzygy_h2(degrees, m + 1)
            from_splitting = restriction_h1(stype.shifts, m + 1)
            assert direct == telescoped == from_splitting, (degrees, m)
            identities += 1

    # the same chain on measured (not predicted) splitting types with a tail
    for degrees, index in (((3, 3, 3, 9), 1), ((2, 2, 3, 7), 2), ((2, 2, 2, 2), 3)):
        ideal = seeded_power_ideal(degrees, GRID_SEED, index=600000 + index, num_vars=3)
        ell = seeded_forms(3, 1, GRID_SEED, index=700000 + index)[0]
        stype = splitting_type_at(ideal, ell)
        omega = binary_power_resolution(degrees).socle_degree
        for m in range(omega, max(degrees) + omega + 3):
            direct = sum(max(d - m - 2, 0) for d in degrees)
            telescoped = syzygy_h2(degrees, m) - syzygy_h2(degrees, m + 1)
            from_splitting = restriction_h1(stype.shifts, m + 1)
            assert direct == telescoped == from_splitting, (degrees, m)
            identities += 1
    elapsed = time.monotonic() - start
    _pass(
        "criterion 7: the surjectivity dimension identity (degree sum = "
        "second difference of the plane count = section count of the splitting) "
        f"holds for all degrees >= restricted socle: {identities} identities, "
        f"redundant-generator tails included ({elapsed:.2f}s)"
    )


def test_criterion_8_four_general_cubes_strong_failure_cubic_success():
    start = time.monotonic()
    ideal = powers_ideal(
        ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 3)
    )
    alg = ideal.algebra

    # Hilbert function double-checked by the naive oracle
    gen_dicts = [dict_from_graded(g) for g in expanded(ideal)]
    brute = naive_hilbert(gen_dicts, list(ideal.generator_degrees), 3, 10)
    assert brute == (1, 3, 6, 6, 3)
    assert alg.hilbert_function() == brute

    report = slp_check(ideal)
    assert not report.holds
    assert report.failures == ((3, 1),)

    # and yet one general cubic multiplies with maximal rank in every degree
    cubic = GradedPoly(3, 3, [((3, 0, 0), 1), ((0, 3, 0), 2), ((0, 0, 3), 5), ((1, 1, 1), 7), ((2, 1, 0), -3)])
    hf = alg.hilbert_function()
    for m in range(len(hf)):
        target = hf[m + 3] if m + 3 < len(hf) else 0
        expected = min(hf[m], target)
        assert multiplication_rank(alg, cubic, m) == expected, m
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(
        "criterion 8: cubes of four general linear forms have Hilbert function "
        "(1,3,6,6,3), fail the strong property at the cube of the witness "
        f"(3->3 rank 2), yet a general cubic has maximal rank in every degree "
        f"({elapsed:.2f}s < 5s)"
    )


def test_criterion_9_shift_sum_conservation_everywhere():
    start = time.monotonic()
    types_checked = 0

    # every tuple of the grid, pruned or not, through the formula route
    for degrees in _sorted_tuples(2, 6, 8):
        shifts = power_syzygy_shifts(degrees)
        assert sum(shifts) == sum(degrees), degrees
        stype = predicted_splitting_type(degrees)
        assert sum(stype.shifts) == sum(degrees), degrees
        types_checked += 2

    # measured splitting types: generic and deliberately special lines
    squares = powers_ideal(((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2))
    cases = [
        (squares, linear_form([1, 2, 3])),
        (squares, linear_form([1, 0, 0])),  # kills a generator
        (_mixed_quintics(), linear_form([1, 2, 3])),
        (
            powers_ideal(((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 9)),
            linear_form([3, -1, 2]),
        ),
    ]
    for sample in range(12):
        degrees = [2 + (sample * 7 + k) % 5 for k in range(3 + sample % 3)]
        ideal = seeded_power_ideal(degrees, GRID_SEED, index=800000 + sample, num_vars=3)
        if ideal.algebra.is_artinian():
            ell = seeded_forms(3, 1, GRID_SEED, index=900000 + sample)[0]
            cases.append((ideal, ell))
    for ideal, ell in cases:
        stype = splitting_type_at(ideal, ell)
        assert sum(stype.shifts) == sum(ideal.generator_degrees), (
            ideal.generator_degrees,
            str(ell),
        )
        types_checked += 1

    elapsed = time.monotonic() - start
    _pass(
        "criterion 9: sum of splitting shifts equals sum of generator degrees "
        f"for every computed splitting type ({types_checked} types: formula, "
        f"generic restriction, and special lines with dead generators; {elapsed:.2f}s)"
    )
