"""Source rules that hold for every module of the package; the Python floor
holds for the benchmark's modules too."""

import ast
import os
import re
import subprocess
import sys
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


def test_all_names_the_public_surface():
    # every module but the cli script lists in __all__ each function and class
    # it defines whose name has no leading _, and no name it does not bind itself
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        public, constants, exported = set(), set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
                constants |= names
        if len(set(exported)) != len(exported):
            found.append(f"{path.name}: __all__ repeats a name")
        found += [f"{path.name}: {name} missing from __all__"
                  for name in sorted(public - set(exported))]
        found += [f"{path.name}: {name} in __all__ is not defined here"
                  for name in sorted(set(exported) - public - constants)]
    assert found == []


def _parallel_uses(name: str, source: str) -> list[str]:
    """The places in the module `name` whose source uses os.fork, os._exit or
    os.waitpid, or imports threading, _thread, multiprocessing, concurrent or
    marshal, as "name:line what"."""
    calls = {"fork", "_exit", "waitpid"}
    banned = {"threading", "_thread", "multiprocessing", "concurrent", "marshal"}
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in calls):
            found.append(f"{name}:{node.lineno} os.{node.attr}")
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and calls & {alias.name for alias in node.names}):
            found.append(f"{name}:{node.lineno} from os import")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            found += [f"{name}:{node.lineno} import {m}" for m in modules
                      if m.split(".")[0] in banned]
    return found


def test_only_flow_forks_exits_and_reaps():
    # the process handling of the parallel exports lives in flow alone
    # (flow._ordered_map); every other module runs in the calling process,
    # with no thread, no process pool and no marshalling
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "flow":
            found += _parallel_uses(path.name, path.read_text())
    assert found == []


def test_the_parallelism_rule_names_the_module_and_line():
    source = ("import json, threading\nfrom os import fork\nimport os\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "def f():\n    import marshal\n    os.waitpid(os.fork(), 0)\n    os._exit(0)\n")
    assert sorted(_parallel_uses("m.py", source)) == sorted([
        "m.py:1 import threading", "m.py:2 from os import", "m.py:4 import concurrent.futures",
        "m.py:6 import marshal", "m.py:7 os.waitpid", "m.py:7 os.fork", "m.py:8 os._exit"])


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize, and every
    # tflow call would pay for them before its command runs
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_loading_the_cli_does_not_load_flow():
    # every tflow call is a fresh interpreter, and flow loads only for the
    # commands that use it
    probe = "import sys, twistorflow.cli; print('twistorflow.flow' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
    # nor does the cli, or flow after it, load a heavy standard module; -S
    # keeps site and its .pth files from loading modules of their own
    probe = ("import sys, twistorflow.cli, twistorflow.flow; print(sorted(m for m in "
             "('dataclasses', 'inspect', 'typing', 'csv') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_private_module_name_is_read():
    # a module-level _name (function, class or assignment) that nothing in the
    # package reads, as a name, an attribute or a from-import, is a leftover
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []


def test_every_module_parses_at_the_declared_python_floor():
    # pyproject.toml declares the oldest Python the package runs on; newer
    # syntax (except*, PEP 695 type parameters, ...) would break it there
    root = Path(__file__).resolve().parent.parent
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (root / "pyproject.toml").read_text(), re.MULTILINE)
    floor = (int(declared[1]), int(declared[2]))
    paths = sorted((root / "src" / "twistorflow").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py"))
    found = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as ex:
            found.append(f"{path.relative_to(root)}:{ex.lineno} {ex.msg}")
    assert len(paths) > 10 and found == []
