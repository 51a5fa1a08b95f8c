import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start():
    """The README's Quick start block runs, and each expression line that
    carries a comment evaluates to the value the comment shows."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    scope, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment and isinstance(ast.parse(code).body[0], ast.Expr):
            checked.append((str(eval(code, scope)), comment.strip()))
        else:
            exec(code, scope)
    wants = ["-1", "-X^2 + a*X + b",
             "b*1⊗1 + a*1⊗X - 1⊗X^2 + a*X⊗1 - X⊗X - X^2⊗1", "3"]
    assert checked == [(want, want) for want in wants]
