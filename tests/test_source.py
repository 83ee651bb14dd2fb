"""Checks on the package source itself."""

import ast
from pathlib import Path

import goodgradings

SOURCES = sorted(Path(goodgradings.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    """Invariants raise named exceptions: `python -O` strips asserts."""
    assert len(SOURCES) >= 9
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
