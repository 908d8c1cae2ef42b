"""The README's library quick start runs as written, and its instance-file
examples parse and evaluate."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from moilab.evaluate import eval_moi, eval_oracle, moi_scale
from moilab.serialize import instance_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(heading: str, lang: str) -> list[str]:
    """The `lang` code blocks of the README section under `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.DOTALL)


def _quick_start() -> str:
    """The first python block under the "Library quick start" heading."""
    blocks = _blocks("Library quick start", "python")
    assert blocks, "README quick start has no python block"
    return blocks[0]


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    ratio, holds = out.getvalue().split()
    assert holds == "True"
    assert 0.0 < float(ratio) <= 1.0


def test_readme_instance_format_blocks_evaluate():
    full, fragment, like_fragment = _blocks("Instance file format", "json")
    inst, exponents = instance_from_json(json.loads(full))
    assert exponents == {"p": 2.0, "q": float("inf")}
    # the second block is an integrand on four measures of two atoms each,
    # the third one on five
    obj = json.loads(full)
    cases = [inst]
    for block, arity in ((fragment, 4), (like_fragment, 5)):
        integrand = json.loads("{" + block + "}")["integrand"]
        measures, operators = [obj["measures"][0]] * arity, obj["operators"] * 2
        case, _ = instance_from_json(
            {"measures": measures, "operators": operators[: arity - 1], "integrand": integrand}
        )
        cases.append(case)
    chain, like = cases[1:]
    assert [m.ndim for m in chain.integrand.middles] == [2, 3]
    assert (like.integrand.kind, like.integrand.arity) == ("first", 5)
    for case in cases:
        assert np.abs(eval_moi(case) - eval_oracle(case)).max() <= 1e-10 * moi_scale(case)
