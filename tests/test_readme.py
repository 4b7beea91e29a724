"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import wlpcheck

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library use")) + len("```python\n")
    return text[start:text.index("\n```", start)]


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
    assert "algebra" not in wlpcheck.__all__
    assert not hasattr(wlpcheck, "algebra")
