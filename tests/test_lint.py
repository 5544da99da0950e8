"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import twistorflow

PACKAGE = Path(twistorflow.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rest on one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
