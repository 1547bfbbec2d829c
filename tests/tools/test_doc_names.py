"""Every dotted ``repro`` name the documentation points at exists.

Docstrings cross-reference the package with Sphinx roles
(``:func:`repro.nn.conv2d```) and the Markdown docs name it in backticks
(```repro.serve.PoseServer```).  Nothing builds an API reference from
them, so a deleted or moved name leaves a stale pointer behind silently.
These tests find every such name — roles in ``src/`` (docstrings and
comments alike), backticked names in ``README.md`` and ``docs/*.md`` —
and resolve each against the package, attribute by attribute.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path
from typing import List

import pytest

_ROOT = Path(__file__).resolve().parents[2]
#: the package's top-level modules and subpackages, one test case each
_SOURCES = sorted(
    path
    for path in (_ROOT / "src" / "repro").iterdir()
    if path.suffix == ".py" or (path / "__init__.py").exists()
)
_DOCUMENTS = [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]

_DOTTED = r"repro(?:\.\w+)+"
#: ``:func:`repro.x.y``` and ``:class:`~repro.x.Y``` (Sphinx roles)
_ROLE = re.compile(rf":(?:func|class|meth|mod|data|attr):`~?({_DOTTED})`")
#: a Markdown code span that is exactly one dotted name, optionally called
_SPAN = re.compile(rf"(?<![:\w])`({_DOTTED})(?:\(\))?`")


def role_names(text: str) -> List[str]:
    return _ROLE.findall(text)


def span_names(text: str) -> List[str]:
    return _SPAN.findall(text)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def _source(path: Path) -> str:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return "\n".join(file.read_text(encoding="utf-8") for file in files)


def test_every_source_is_checked():
    assert len(_SOURCES) > 1 and len(_DOCUMENTS) > 1
    assert sum(len(role_names(_source(path))) for path in _SOURCES) > 0
    assert sum(len(span_names(path.read_text(encoding="utf-8"))) for path in _DOCUMENTS) > 0


def test_a_stale_name_is_caught():
    text = (
        "See :func:`repro.nn.conv2d`, :class:`~repro.serve.PoseServer`,\n"
        ":attr:`repro.serve.ServeConfig.block_width` and\n"
        ":func:`repro.engine.no_such_walker`; `repro.serve.worker` and\n"
        "`repro.serve.ShardFactory()` but not `python -m repro.experiments.cli`."
    )
    assert role_names(text) == [
        "repro.nn.conv2d",
        "repro.serve.PoseServer",
        "repro.serve.ServeConfig.block_width",
        "repro.engine.no_such_walker",
    ]
    assert span_names(text) == ["repro.serve.worker", "repro.serve.ShardFactory"]
    assert [resolves(name) for name in role_names(text) + span_names(text)] == [
        True, True, True, False, True, False,
    ]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_role_in_src_resolves(path):
    stale = sorted({name for name in role_names(_source(path)) if not resolves(name)})
    assert not stale, f"{path.name}: Sphinx roles name what does not exist: {stale}"


@pytest.mark.parametrize("path", _DOCUMENTS, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_backticked_name_in_docs_resolves(path):
    names = span_names(path.read_text(encoding="utf-8"))
    stale = sorted({name for name in names if not resolves(name)})
    assert not stale, f"{path.name} names what does not exist: {stale}"
