"""Guards on the package source itself."""

import ast
from pathlib import Path

import transknot

SOURCES = sorted(Path(transknot.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements():
    # `python -O` strips asserts; consistency checks raise TransknotError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
