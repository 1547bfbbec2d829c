"""Every name an example imports from ``repro`` exists.

No CI step runs or imports ``examples/``, so deleting or renaming a name
the examples use would break them silently.  These tests parse each
``examples/*.py`` (without running it) and resolve every
``from repro... import name`` against the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import List, Tuple

import pytest

_EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def repro_imports(path: Path) -> List[Tuple[str, str]]:
    """The ``(module, name)`` pairs of a file's ``from repro... import``
    statements, function-level imports included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module is not None
        and (node.module == "repro" or node.module.startswith("repro."))
        for alias in node.names
    ]


def resolves(module_name: str, name: str) -> bool:
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # ``from repro.serve import transport`` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_example_is_checked():
    assert _EXAMPLES, "no examples found"
    assert sum(len(repro_imports(path)) for path in _EXAMPLES) > 0


def test_a_missing_name_is_caught(tmp_path):
    example = tmp_path / "example.py"
    example.write_text(
        "import numpy\n"
        "from repro.serve import PoseServer, transport\n"
        "def main():\n"
        "    from repro.serve.adapters import NoSuchName\n"
    )
    pairs = repro_imports(example)
    assert pairs == [
        ("repro.serve", "PoseServer"),
        ("repro.serve", "transport"),
        ("repro.serve.adapters", "NoSuchName"),
    ]
    assert [resolves(*pair) for pair in pairs] == [True, True, False]


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda path: path.name)
def test_every_repro_import_resolves(path):
    missing = [
        f"from {module} import {name}"
        for module, name in repro_imports(path)
        if not resolves(module, name)
    ]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
