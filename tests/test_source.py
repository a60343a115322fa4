"""Checks on the package source itself rather than on its behaviour."""

import ast
from pathlib import Path

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
