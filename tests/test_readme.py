"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

import wlpcheck

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use")
    return text[start:text.index("\n## ", start)]


def _library_example() -> str:
    text = _library_section()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("\n```", start)]


def _documented_names() -> set[str]:
    """Names the example imports, and bare names in backticks in the prose."""
    imported = re.search(r"from wlpcheck import \(([^)]*)\)", _library_example()).group(1)
    names = set(re.findall(r"\w+", imported))
    names |= set(re.findall(r"`([A-Za-z_]\w*)`", _library_section()))
    return names - {"wlpcheck"}


def test_library_example_prints_its_commented_outputs():
    code = _library_example()
    # "print(x)  # value — remark": the value is what the line prints
    expected = [
        re.split(r"\s+—\s+", comment)[0].strip()
        for comment in re.findall(r"^print\(.*\)\s+#\s*(.+)$", code, flags=re.MULTILINE)
    ]
    assert expected == ["True", "(1, 3, 6, 7, 6, 3, 1)", "(4, 5, 9)", "5"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_every_exported_name_resolves():
    for name in wlpcheck.__all__:
        assert hasattr(wlpcheck, name), name
    assert set(wlpcheck.__all__) <= set(dir(wlpcheck))
    namespace: dict = {}
    exec("from wlpcheck import *", namespace)
    assert set(wlpcheck.__all__) <= set(namespace)
    assert set(wlpcheck.__all__) - {"__version__"} == _documented_names()
    assert "algebra" not in wlpcheck.__all__
    assert not hasattr(wlpcheck, "algebra")
    with pytest.raises(AttributeError, match="no_such_name"):
        wlpcheck.no_such_name
