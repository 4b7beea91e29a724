"""Ideal descriptions: parsing, rendering, corpus loading, error reporting."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from wlpcheck import GradedPoly, SpecFormatError, load_ideal_file, parse_ideal, render_ideal
from wlpcheck.specfile import (
    corpus_names,
    load_corpus_entry,
    load_ideal_argument,
    load_ideal_text,
    parse_polynomial,
    render_ideal_text,
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
    assert (form.coeffs, power) == ((0, Fraction(1, 2), 0), 2)
    last = ideal.generators[3]
    assert isinstance(last, GradedPoly)
    assert last.coefficient((0, 1, 1)) == Fraction(-2, 3)


def test_round_trip_parse_render():
    ideal = parse_ideal(GOOD)
    assert parse_ideal(render_ideal(ideal)) == ideal
    assert load_ideal_text(render_ideal_text(ideal), "rt") == ideal


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
        ({"polynomials": [{"degree": 2, "terms": {"1 1": 1}}]}, "needs 3 entries"),
        ({"polynomials": [{"degree": 2, "terms": {"1 0 0": 1}}]}, "degree 2"),
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


def test_cancelling_terms_rejected():
    bad = {
        "variables": 2,
        "polynomials": [{"degree": 2, "terms": {"1 1": 1}}],
    }
    parse_ideal(bad)
    with pytest.raises(SpecFormatError):
        parse_polynomial({"degree": 2, "terms": {"1 1": "0/5"}}, 2, "here")


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
