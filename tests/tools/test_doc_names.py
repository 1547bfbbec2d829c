"""Every dotted ``repro`` name the documentation points at exists.

Docstrings cross-reference the package with Sphinx roles
(``:func:`repro.nn.conv2d```) and the Markdown docs name it in backticks
(```repro.serve.PoseServer```).  Nothing builds an API reference from
them, so a deleted or moved name leaves a stale pointer behind silently.
These tests find every such name — roles in ``src/`` (docstrings and
comments alike), backticked names in ``README.md`` and ``docs/*.md`` —
and resolve each against the package, attribute by attribute.  The docs
also name classes bare (```ShardCall```); each such capitalised name must
be an attribute of some ``repro`` module, a builtin or a ``Test*`` class
under ``tests/``.  The same documents name serving metrics
(```fuse_serve_flushes_total```); each must be a family the serving
exposition emits.
"""

from __future__ import annotations

import builtins
import fnmatch
import importlib
import pkgutil
import re
from functools import cache
from pathlib import Path
from typing import List, Set

import pytest

import repro
from repro.serve import ServeMetrics

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
#: a Markdown code span that is exactly one capitalised identifier with a
#: lower-case letter (```PoseServer```, ```Flatten```; not ```JSON```)
_CLASS_SPAN = re.compile(r"(?<![`\w])`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`(?!`)")
#: a code span opening with a serving metric name, which may carry a label
#: set or a ``*`` glob (```fuse_serve_adapter_*_total```).  The router's
#: ``fuse_router_*`` families are left out: it builds their names at run time.
_METRIC = re.compile(r"`(fuse_serve_[\w*]+)[^`]*`")


def role_names(text: str) -> List[str]:
    return _ROLE.findall(text)


def span_names(text: str) -> List[str]:
    return _SPAN.findall(text)


def metric_names(text: str) -> List[str]:
    return _METRIC.findall(text)


def class_names(text: str) -> List[str]:
    return _CLASS_SPAN.findall(text)


@cache
def known_names() -> Set[str]:
    """Every attribute of every ``repro`` module, every builtin, and every
    ``Test*`` class defined under ``tests/``."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    names = {name for module in modules for name in dir(module)}
    names.update(dir(builtins))
    for path in (_ROOT / "tests").rglob("*.py"):
        names.update(re.findall(r"^class (Test\w+)", path.read_text(encoding="utf-8"), re.M))
    return names


def emitted(name: str) -> bool:
    """Whether ``name`` (a glob if it holds ``*``) matches a ``# TYPE``
    family of the serving Prometheus exposition."""
    exposition = ServeMetrics().to_prometheus(queue_depth=0)
    families = [line.split()[2] for line in exposition.splitlines() if line.startswith("# TYPE ")]
    return any(fnmatch.fnmatchcase(family, name) for family in families)


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
    assert sum(len(class_names(path.read_text(encoding="utf-8"))) for path in _DOCUMENTS) > 0


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


def test_a_stale_class_name_is_caught():
    text = (
        "`ShardCall`, `ValueError` and `TestReplyLedger` exist; `MonotonicClock`\n"
        "and `Flush` are gone; `JSON`, `repro.serve.PoseServer`, `x = Foo()` and\n"
        "```Fenced``` are not bare class spans."
    )
    assert class_names(text) == [
        "ShardCall", "ValueError", "TestReplyLedger", "MonotonicClock", "Flush",
    ]  # fmt: skip
    assert [name in known_names() for name in class_names(text)] == [
        True, True, True, False, False,
    ]  # fmt: skip


@pytest.mark.parametrize("path", _DOCUMENTS, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_bare_class_name_in_docs_exists(path):
    names = class_names(path.read_text(encoding="utf-8"))
    stale = sorted(set(names) - known_names())
    assert not stale, f"{path.name} names classes that do not exist: {stale}"


def test_a_stale_metric_name_is_caught():
    text = (
        "`fuse_serve_flushes_total`, `fuse_serve_requests_shed_total{tier=\"frontend\"}`,\n"
        "`fuse_serve_adapter_*_total`, `fuse_serve_param_cache_hits_total` and\n"
        "`fuse_router_retries_total`; fuse_serve_flushes_total outside a span."
    )
    assert metric_names(text) == [
        "fuse_serve_flushes_total",
        "fuse_serve_requests_shed_total",
        "fuse_serve_adapter_*_total",
        "fuse_serve_param_cache_hits_total",
    ]
    assert [emitted(name) for name in metric_names(text)] == [True, True, True, False]


@pytest.mark.parametrize("path", _DOCUMENTS, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_documented_metric_is_emitted(path):
    names = metric_names(path.read_text(encoding="utf-8"))
    stale = sorted({name for name in names if not emitted(name)})
    assert not stale, f"{path.name} names metrics the serving exposition lacks: {stale}"
