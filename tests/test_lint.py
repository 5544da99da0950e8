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


def _own_nodes(fn):
    """The nodes of a function body, not descending into nested scopes."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_unused_local_assignments():
    # a name bound by a plain assignment must be read in its function or in a
    # function nested in it; tuple targets, _, nonlocal and global are exempt
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            used = {"_"}
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, (ast.Nonlocal, ast.Global)):
                    used.update(node.names)
            for node in _own_nodes(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                for t in targets:
                    if isinstance(t, ast.Name) and t.id not in used:
                        found.append(f"{path.name}:{t.lineno} {fn.name}: {t.id}")
    assert found == []
