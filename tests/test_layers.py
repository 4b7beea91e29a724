"""Each rule the rank argument rests on has one home module.

The rules are read from the syntax trees of the package and the scripts:
names, definitions and calls only, so a docstring or a comment that
mentions a name does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "wlpcheck").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in FILES}


def _names(tree: ast.AST) -> set[str]:
    """Every name the module reads, binds, imports or defines."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _files_where(test) -> set[str]:
    return {name for name, tree in TREES.items() if any(map(test, ast.walk(tree)))}


def test_module_names_are_distinct():
    assert len(TREES) == len(FILES)


@pytest.mark.parametrize(
    "name, homes",
    [
        # the rule for when a mod-p rank is trusted: linalg.exact_rank
        ("rank_mod_prime", {"linalg.py"}),
        # the integer substitutions: normalized coordinates and restriction
        ("push_form", {"quotient.py"}),
        ("push_poly", {"quotient.py"}),
        # rationals become integers in one place: the constructors of poly
        ("_cleared", {"poly.py"}),
        # one sampler of linear forms, behind witness_forms and random_power_ideal
        ("distinct_forms", {"rng.py", "trials.py"}),
        # only the parser and poly hold a rational
        ("Fraction", {"poly.py", "specfile.py"}),
    ],
)
def test_a_name_is_referenced_only_at_home(name, homes):
    where = {file for file, tree in TREES.items() if name in _names(tree)}
    assert where and where <= homes


@pytest.mark.parametrize("name", ["integer_coeffs", "integer_terms", "render_coefficient"])
def test_records_hold_one_representation(name):
    # a form or polynomial stores its cleared integers, which every rank
    # reads: no second, integer view of it, and no renderer of rationals
    assert not {file for file, tree in TREES.items() if name in _names(tree)}


@pytest.mark.parametrize("name", ["DegreePiece", "ideal_rank", "ambient_dim", "_compute_piece", "_hilbert"])
def test_a_piece_is_its_dimension(name):
    # the shared dict of pieces maps each degree to the dimension of the
    # quotient piece: no record around it, and no second cache of it
    assert not {file for file, tree in TREES.items() if name in _names(tree)}


@pytest.mark.parametrize("name", ["Cokernel", "project", "_standard"])
def test_a_row_is_built_once_in_the_space_it_is_ranked_in(name):
    # shifted_rows writes each row straight into its target, the standard
    # monomials or a shared cokernel: no dense row projected in a second
    # pass, and no second door to the shared tables
    assert not {file for file, tree in TREES.items() if name in _names(tree)}


def test_the_generator_format_is_told_apart_only_where_it_is_owned():
    # a power (form, k) is a tuple, a polynomial is not
    def tells_a_power(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "tuple"
        )

    where = _files_where(tells_a_power)
    assert where and where <= {"quotient.py", "specfile.py"}


def test_multiplication_rank_is_defined_once_in_quotient():
    def defines(node) -> bool:
        return isinstance(node, ast.FunctionDef) and node.name == "multiplication_rank"

    assert _files_where(defines) == {"quotient.py"}
