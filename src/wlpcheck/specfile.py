"""Reading ideals from JSON descriptions, and the bundled reference corpus.

An ideal description is a JSON object:

    {
      "variables": 3,
      "powers": [{"form": [1, 0, 0], "power": 5}],
      "polynomials": [{"degree": 4, "terms": {"2 1 1": 1, "1 2 1": "3/2"}}]
    }

``powers`` lists linear forms with exponents; ``polynomials`` lists
homogeneous polynomials, each a map from space-separated exponent vectors
to coefficients.  Coefficients are integers or exact fraction strings such
as "3/2"; floats are rejected because nothing downstream tolerates
rounding.  At least one generator is required.

Corpus files use the same schema plus "name", "description" and an
"expect" object of precomputed values that the verify command re-checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .errors import SpecFormatError
from .poly import GradedPoly, LinearForm
from .quotient import Generator, GradedIdeal


def _fail(where: str, message: str) -> SpecFormatError:
    return SpecFormatError(message, where=where)


def parse_coefficient(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise _fail(where, "coefficient must be an integer or a fraction string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _fail(where, f"bad fraction string {value!r}") from None
    raise _fail(where, f"coefficient must be exact, got {type(value).__name__}")


def _parse_exponents(key: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in key.split())
    except ValueError:
        raise _fail(where, f"bad exponent key {key!r}") from None


def parse_ideal(data, where: str = "ideal") -> GradedIdeal:
    if not isinstance(data, dict):
        raise _fail(where, "ideal description must be a JSON object")
    num_vars = data.get("variables")
    if not isinstance(num_vars, int) or isinstance(num_vars, bool) or num_vars < 1:
        raise _fail(where, "'variables' must be a positive integer")

    generators: list[Generator] = []

    powers = data.get("powers", [])
    if not isinstance(powers, list):
        raise _fail(where, "'powers' must be a list")
    for i, entry in enumerate(powers):
        spot = f"{where}.powers[{i}]"
        if not isinstance(entry, dict):
            raise _fail(spot, "each power is an object with 'form' and 'power'")
        form_data = entry.get("form")
        if not isinstance(form_data, list) or len(form_data) != num_vars:
            raise _fail(spot, f"'form' must list {num_vars} coefficients")
        coeffs = tuple(parse_coefficient(c, spot) for c in form_data)
        exponent = entry.get("power")
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 1:
            raise _fail(spot, "'power' must be a positive integer")
        form = LinearForm(coeffs)
        if form.is_zero:
            raise _fail(spot, "the zero form has no meaningful power")
        generators.append((form, exponent))

    polys = data.get("polynomials", [])
    if not isinstance(polys, list):
        raise _fail(where, "'polynomials' must be a list")
    for i, entry in enumerate(polys):
        spot = f"{where}.polynomials[{i}]"
        generators.append(parse_polynomial(entry, num_vars, spot))

    if not generators:
        raise _fail(where, "no generators given")
    try:
        return GradedIdeal(num_vars, tuple(generators))
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def parse_polynomial(entry, num_vars: int, where: str) -> GradedPoly:
    if not isinstance(entry, dict):
        raise _fail(where, "each polynomial is an object with 'degree' and 'terms'")
    degree = entry.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise _fail(where, "'degree' must be a positive integer")
    terms = entry.get("terms")
    if not isinstance(terms, dict) or not terms:
        raise _fail(where, "'terms' must be a nonempty object")
    pairs = [(_parse_exponents(k, where), parse_coefficient(v, where)) for k, v in terms.items()]
    try:
        poly = GradedPoly(num_vars, degree, pairs)
    except ValueError as exc:  # an exponent vector that is not a monomial of the degree
        raise _fail(where, str(exc)) from None
    if poly.is_zero:
        raise _fail(where, "the terms cancel to the zero polynomial")
    return poly


def render_coefficient(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def render_ideal(ideal: GradedIdeal) -> dict:
    """Inverse of parse_ideal: a JSON-ready description of the ideal.

    parse_ideal(render_ideal(I)) reconstructs I exactly; power generators
    stay power entries and everything else is written term by term.
    """
    powers = []
    polynomials = []
    for gen in ideal.generators:
        if isinstance(gen, tuple):
            form, exponent = gen
            powers.append({
                "form": [render_coefficient(c) for c in form.coeffs],
                "power": exponent,
            })
        else:
            polynomials.append({
                "degree": gen.degree,
                "terms": {
                    " ".join(str(e) for e in exps): render_coefficient(c)
                    for exps, c in gen.terms()
                },
            })
    data: dict = {"variables": ideal.num_vars}
    if powers:
        data["powers"] = powers
    if polynomials:
        data["polynomials"] = polynomials
    return data


def _decode_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(where, f"not valid JSON: {exc}") from None
    except RecursionError:
        raise _fail(where, "not valid JSON: nested too deeply") from None


def load_ideal_text(text: str, where: str) -> GradedIdeal:
    return parse_ideal(_decode_json(text, where), where)


def load_ideal_file(path: str) -> GradedIdeal:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _fail(path, f"cannot read: {exc.strerror or exc}") from None
    return load_ideal_text(text, path)


class CorpusEntry(NamedTuple):
    name: str
    description: str
    ideal: GradedIdeal
    expect: dict


def _corpus_dir():
    return resources.files("wlpcheck") / "corpus"


def corpus_names() -> tuple[str, ...]:
    names = []
    for item in _corpus_dir().iterdir():
        if item.name.endswith(".json"):
            names.append(item.name[: -len(".json")])
    return tuple(sorted(names))


def load_corpus_entry(name: str) -> CorpusEntry:
    """A bundled entry by name; a name outside ``corpus_names()`` is rejected."""
    where = f"corpus:{name}"
    known = corpus_names()
    if name not in known:
        raise _fail(where, f"no such corpus entry (have: {', '.join(known)})")
    data = _decode_json((_corpus_dir() / f"{name}.json").read_text(encoding="utf-8"), where)
    ideal = parse_ideal(data, where)
    expect = data.get("expect", {})
    if not isinstance(expect, dict):
        raise _fail(where, "'expect' must be an object")
    return CorpusEntry(
        name=name,
        description=str(data.get("description", "")),
        ideal=ideal,
        expect=expect,
    )


def load_ideal_argument(text: str) -> GradedIdeal:
    """CLI entry: corpus:NAME, an inline JSON object, or a file path."""
    if text.startswith("corpus:"):
        return load_corpus_entry(text[len("corpus:"):]).ideal
    if text.lstrip().startswith("{"):
        return load_ideal_text(text, "<argument>")
    return load_ideal_file(text)
