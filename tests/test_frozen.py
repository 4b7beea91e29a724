"""Validated records refuse assignment and deletion, and print their fields.

The adjoined algebras and the shared caches are keyed by these records, so
a record that changed after it was hashed would corrupt them.
"""

from __future__ import annotations

import pytest

from wlpcheck import GradedIdeal
from wlpcheck.poly import GradedPoly, LinearForm
from wlpcheck.rng import CheckConfig

FORM = LinearForm([1, -2])
POLY = GradedPoly(2, 2, [((1, 1), 3)])
RECORDS = [
    (FORM, "LinearForm(coeffs=(1, -2))"),
    (POLY, "GradedPoly(num_vars=2, degree=2, items=(((1, 1), 3),))"),
    (
        GradedIdeal(2, ((FORM, 2), POLY)),
        "GradedIdeal(num_vars=2, generators=((LinearForm(coeffs=(1, -2)), 2), "
        "GradedPoly(num_vars=2, degree=2, items=(((1, 1), 3),))))",
    ),
    (CheckConfig(seed=7, bound=3, attempts=2), "CheckConfig(seed=7, bound=3, attempts=2)"),
]


@pytest.mark.parametrize("record, text", RECORDS)
def test_a_record_refuses_assignment_and_deletion(record, text):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == text

