"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first python block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README quick start has no python block"
    return match.group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    ratio, holds = out.getvalue().split()
    assert holds == "True"
    assert 0.0 < float(ratio) <= 1.0
