"""The public surface: package exports, the README quick start and the
stdlib-only runtime."""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import dworkbox

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_src_imports_only_stdlib():
    """The runtime depends on nothing outside the standard library
    (`__future__` is in it; relative imports stay inside the package)."""
    sources = sorted((ROOT / "src" / "dworkbox").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
