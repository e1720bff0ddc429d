"""The package and its scripts stay within the oldest Python that
``pyproject.toml`` declares.

This parses each module with that version's grammar and rejects the one
newer standard-library name the code has reached for (``operator.call``,
new in 3.11); it is not a run under that interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "stacksorting").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def declared_minimum() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def operator_call_uses(tree: ast.AST) -> list[int]:
    """The lines that import ``call`` from ``operator`` or read it off the
    module."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "operator"
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "operator"
        and any(alias.name == "call" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "call"
        and isinstance(node.value, ast.Name) and node.value.id in names
    )


def test_minimum_is_310():
    assert declared_minimum() == (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_under_the_declared_minimum(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path), feature_version=declared_minimum())
    assert operator_call_uses(tree) == [], f"operator.call needs Python 3.11: {path.name}"


def test_the_guard_sees_operator_call():
    for source in ("from operator import call", "import operator as op\nmap(op.call, [])"):
        assert operator_call_uses(ast.parse(source))
    assert not operator_call_uses(ast.parse("from operator import itemgetter\nf.call()"))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass", feature_version=(3, 10))
