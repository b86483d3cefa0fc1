"""The public surface: package exports and the README quick start."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import dworkbox

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in dworkbox.__all__ if not hasattr(dworkbox, name)]
    assert not missing
    assert len(set(dworkbox.__all__)) == len(dworkbox.__all__)


def _quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_states_true_values():
    """Each bare expression in the block equals the value in its comment."""
    namespace: dict = {}
    checked = 0
    for line in _quick_start_block().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        statement = ast.parse(code.strip()).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
            expected = eval(comment.strip(), {"Fraction": Fraction})
            assert value == expected, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 7
