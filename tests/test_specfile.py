"""Ideal descriptions: parsing, rendering, corpus loading, error reporting."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import pytest

from wlpcheck import GradedPoly, SpecFormatError, load_ideal_file, parse_ideal, render_ideal
from wlpcheck.poly import LinearForm
from wlpcheck.specfile import (
    corpus_names,
    load_corpus_entry,
    load_ideal_argument,
    load_ideal_text,
    parse_polynomial,
)

GOOD = {
    "variables": 3,
    "powers": [
        {"form": [1, 0, 0], "power": 2},
        {"form": [0, "1/2", 0], "power": 2},
        {"form": [0, 0, 1], "power": 2},
    ],
    "polynomials": [{"degree": 2, "terms": {"1 1 0": 1, "0 1 1": "-2/3"}}],
}


def test_parse_good_description():
    ideal = parse_ideal(GOOD)
    assert ideal.num_vars == 3
    assert ideal.generator_degrees == (2, 2, 2, 2)
    form, power = ideal.generators[1]
    # fractional input is stored cleared: times the lcm of its denominators
    assert (form.coeffs, power) == ((0, 1, 0), 2)
    last = ideal.generators[3]
    assert isinstance(last, GradedPoly)
    assert dict(last.items) == {(1, 1, 0): 3, (0, 1, 1): -2}


def test_round_trip_parse_render():
    ideal = parse_ideal(GOOD)
    assert parse_ideal(render_ideal(ideal)) == ideal
    assert load_ideal_text(json.dumps(render_ideal(ideal), indent=2), "rt") == ideal


def test_round_trip_for_the_whole_corpus():
    for name in corpus_names():
        entry = load_corpus_entry(name)
        assert parse_ideal(render_ideal(entry.ideal)) == entry.ideal


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"variables": 0}, "'variables'"),
        ({"variables": "three"}, "'variables'"),
        ({"powers": "nope"}, "'powers' must be a list"),
        ({"powers": [{"form": [1, 0], "power": 2}]}, "3 coefficients"),
        ({"powers": [{"form": [1, 0, 0], "power": 0}]}, "'power'"),
        ({"powers": [{"form": [1, 0, 0], "power": True}]}, "'power'"),
        ({"powers": [{"form": [0, 0, 0], "power": 2}]}, "zero form"),
        ({"powers": [{"form": [1, 0, 0.5], "power": 2}]}, "exact"),
        ({"powers": [{"form": [1, 0, "1/0"], "power": 2}]}, "bad fraction"),
        ({"powers": [{"form": [1, 0, True], "power": 2}]}, "coefficient"),
        ({"powers": [], "polynomials": []}, "no generators"),
        ({"polynomials": [{"degree": 2, "terms": {}}]}, "'terms'"),
        (
            {"polynomials": [{"degree": 2, "terms": {"1 1": 1}}]},
            "(1, 1) are not a degree-2 monomial in 3 variables",
        ),
        (
            {"polynomials": [{"degree": 2, "terms": {"1 0 0": 1}}]},
            "(1, 0, 0) are not a degree-2 monomial",
        ),
        ({"polynomials": [{"degree": 2, "terms": {"1 x 0": 1}}]}, "bad exponent"),
        (
            {"polynomials": [{"degree": 2, "terms": {"1 1 0": 1, "0 1 1": 0}}]},
            None,  # fine: one term carries the polynomial
        ),
    ],
)
def test_parse_errors(mutation, fragment):
    data = {**GOOD, **mutation}
    if fragment is None:
        parse_ideal(data)
        return
    with pytest.raises(SpecFormatError) as info:
        parse_ideal(data)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "value, error, message",
    [
        (True, TypeError, "coefficient must be an integer or a fraction string"),
        (0.5, TypeError, "coefficient must be exact, got float"),
        (None, TypeError, "coefficient must be exact, got NoneType"),
        ("1/0", ValueError, "bad fraction string '1/0'"),
        ("x", ValueError, "bad fraction string 'x'"),
    ],
)
def test_poly_alone_decides_which_coefficients_are_exact(value, error, message):
    # the library raises what the parser reports after the JSON spot
    with pytest.raises(error) as raised:
        LinearForm([1, value])
    assert str(raised.value) == message
    with pytest.raises(error) as raised:
        GradedPoly(2, 2, [((1, 1), value)])
    assert str(raised.value) == message
    with pytest.raises(SpecFormatError) as reported:
        parse_ideal({"variables": 2, "powers": [{"form": [1, value], "power": 2}]})
    assert str(reported.value) == f"ideal.powers[0]: {message}"
    with pytest.raises(SpecFormatError) as reported:
        parse_ideal({"variables": 2, "polynomials": [{"degree": 2, "terms": {"1 1": value}}]})
    assert str(reported.value) == f"ideal.polynomials[0]: {message}"


def test_the_first_bad_term_is_reported():
    terms = {"1 1": 1, "2 x": "1/0", "0 2": 0.5}
    with pytest.raises(SpecFormatError, match="bad exponent key '2 x'"):
        parse_polynomial({"degree": 2, "terms": terms}, 2, "here")
    terms = {"1 1": 0.5, "2 x": 1}
    with pytest.raises(SpecFormatError, match="got float"):
        parse_polynomial({"degree": 2, "terms": terms}, 2, "here")


def test_cancelling_terms_rejected():
    bad = {
        "variables": 2,
        "polynomials": [{"degree": 2, "terms": {"1 1": 1}}],
    }
    parse_ideal(bad)
    with pytest.raises(SpecFormatError):
        parse_polynomial({"degree": 2, "terms": {"1 1": "0/5"}}, 2, "here")


def test_sparse_high_degree_polynomial_stays_small():
    # 2 of the C(35, 5) = 324632 monomials of degree 30 in six variables
    data = {
        "variables": 6,
        "polynomials": [{"degree": 30, "terms": {"30 0 0 0 0 0": 1, "0 0 0 0 0 30": "-1/2"}}],
    }
    tracemalloc.start()
    try:
        ideal = parse_ideal(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(ideal.generators[0].items) == 2


def test_not_an_object():
    with pytest.raises(SpecFormatError):
        parse_ideal([1, 2, 3])
    with pytest.raises(SpecFormatError):
        load_ideal_text("not json at all", "here")


def test_load_from_file(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    ideal = load_ideal_file(str(path))
    assert ideal.generator_degrees == (2, 2, 2, 2)
    with pytest.raises(SpecFormatError):
        load_ideal_file(str(tmp_path / "missing.json"))


def test_argument_routing(tmp_path):
    inline = load_ideal_argument(json.dumps(GOOD))
    assert inline == parse_ideal(GOOD)

    path = tmp_path / "b.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    assert load_ideal_argument(str(path)) == inline

    squares = load_ideal_argument("corpus:three-squares")
    assert squares.generator_degrees == (2, 2, 2)

    with pytest.raises(SpecFormatError) as info:
        load_ideal_argument("corpus:missing-entry")
    assert "no such corpus entry" in str(info.value)


def test_corpus_is_complete_and_annotated():
    names = corpus_names()
    assert set(names) == {
        "three-squares",
        "mixed-quintics-and-monomials",
        "four-variable-cubes",
        "four-general-cubes",
    }
    for name in names:
        entry = load_corpus_entry(name)
        assert entry.description
        assert entry.expect
        assert "hilbert" in entry.expect


def test_error_carries_location():
    err = SpecFormatError("broken", where="somewhere.powers[2]")
    assert "somewhere.powers[2]" in str(err)
