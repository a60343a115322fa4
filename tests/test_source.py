"""Checks on the package source itself rather than on its behaviour."""

import ast
from pathlib import Path

import numpy as np
import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "unlearnlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_rebinds_its_globals(path):
    # module-level state that a function rebinds outlives the call that
    # set it: results then depend on what ran earlier in the process
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno} global {', '.join(node.names)}"
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_the_source_list_is_the_package():
    assert {p.name for p in SOURCES} >= {"__init__.py", "harness.py", "unlearn.py"}


def test_the_step_kernel_allocates_only_through_aligned():
    # every array a step touches starts on a cache line: _Kernel and
    # _Workspace create arrays only with _aligned, and each numpy call in
    # them writes into an out= array (a reduction to a scalar aside)
    path = next(p for p in SOURCES if p.name == "models.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    found, aligned = [], set()
    for name in ("_Kernel", "_Workspace"):
        for call in (n for n in ast.walk(classes[name]) if isinstance(n, ast.Call)):
            func, where = call.func, f"{name} line {call.lineno}"
            keywords = {k.arg for k in call.keywords}
            if isinstance(func, ast.Name) and func.id == "_aligned":
                aligned.add(name)
            elif isinstance(func, ast.Attribute) and func.attr in ("copy", "astype"):
                found.append(f"{where}: .{func.attr}()")
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "np" and "out" not in keywords):
                found.append(f"{where}: np.{func.attr} without out=")
            elif (isinstance(func, ast.Attribute) and func.attr == "reduce"
                  and isinstance(func.value, ast.Attribute)
                  and isinstance(getattr(np, func.value.attr, None), np.ufunc)
                  and keywords & {"axis", "keepdims"} and "out" not in keywords):
                found.append(f"{where}: a reduction to an array without out=")
    assert found == []
    assert aligned == {"_Kernel", "_Workspace"}
