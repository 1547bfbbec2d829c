"""No module imports a name it never uses.

CI lints with ``ruff check``, whose pyflakes rule F401 fails on an unused
import.  This is the same check written with :mod:`ast`, so it runs
wherever the tests run: every name an import binds must appear in its
module as a ``Name`` (``np`` in ``np.zeros`` counts) or as a word inside a
string constant (string annotations, ``__all__`` entries).

Package ``__init__.py`` files are skipped: their imports are re-exports,
which ``__all__`` pins.  ``perfbench/`` is the benchmark's own code and is
not checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List

import pytest

_ROOT = Path(__file__).resolve().parents[2]
_TREES = ("src", "tests", "benchmarks", "examples", "scripts")

_WORD = re.compile(r"[A-Za-z_]\w*")


def unused_imports(source: str) -> List[str]:
    """``"line: name"`` for every imported name ``source`` never uses."""
    bound = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_WORD.findall(node.value))
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"{line}: {name}" for line, name in unused]


@pytest.mark.parametrize(
    "source, expected",
    [
        pytest.param("import os\n", ["1: os"], id="unused-import"),
        pytest.param("import numpy as np\nnp.zeros(1)\n", [], id="attribute-use"),
        pytest.param("import numpy as np\nnumpy = 1\n", ["1: np"], id="alias-is-the-bound-name"),
        pytest.param("import os.path\nos.getcwd()\n", [], id="dotted-import-binds-its-head"),
        pytest.param(
            "from typing import Dict\nx: 'Dict[str, int]' = {}\n", [], id="string-annotation"
        ),
        pytest.param("from a import b\n__all__ = ['b']\n", [], id="all-entry"),
        pytest.param("from __future__ import annotations\n", [], id="future-import"),
        pytest.param("from os import *\n", [], id="star-import"),
    ],
)
def test_checker_rules(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize("tree", _TREES)
def test_no_unused_imports(tree):
    files = sorted(path for path in (_ROOT / tree).rglob("*.py") if path.name != "__init__.py")
    assert files
    unused = {
        str(path.relative_to(_ROOT)): found
        for path in files
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused, f"unused imports (ruff F401): {unused}"
