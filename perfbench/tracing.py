"""In-memory span recorder for the traced benchmark run.

Spans are recorded only here, around calls into the serving layers' public
entry points: :meth:`Tracer.wrap` swaps an attribute of a live object (or a
class) for a recording wrapper and returns a function that restores it.  No
program file changes.  A span is ``(id, parent, trace id, name, layer,
start, end)``; the parent is whatever span was open in the same thread or
asyncio task, and a span without its own trace id inherits its parent's, so
every span of one request shares an id.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

Span = Tuple[int, Optional[int], Optional[Hashable], str, str, float, float]

_OPEN: contextvars.ContextVar = contextvars.ContextVar("perfbench_open_span", default=None)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def call(self, name: str, layer: str, fn: Callable, *args, trace_id=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        parent = _OPEN.get()
        span_id = next(self._ids)
        if trace_id is None and parent is not None:
            trace_id = parent[1]
        token = _OPEN.set((span_id, trace_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _OPEN.reset(token)
            self.spans.append(
                (span_id, None if parent is None else parent[0], trace_id, name, layer, start, end)
            )

    async def call_async(self, name: str, layer: str, awaitable, trace_id=None):
        """Await ``awaitable`` inside one span (the span lives in the current task)."""
        parent = _OPEN.get()
        span_id = next(self._ids)
        if trace_id is None and parent is not None:
            trace_id = parent[1]
        token = _OPEN.set((span_id, trace_id))
        start = time.perf_counter()
        try:
            return await awaitable
        finally:
            end = time.perf_counter()
            _OPEN.reset(token)
            self.spans.append(
                (span_id, None if parent is None else parent[0], trace_id, name, layer, start, end)
            )

    def wrap(self, owner, attribute: str, layer: str) -> Callable[[], None]:
        """Record a span around every call of ``owner.attribute``.

        ``owner`` may be an instance (the wrapper shadows the bound method)
        or a class (the wrapper replaces the function for every instance).
        Returns the function that undoes the wrap.
        """
        original = getattr(owner, attribute)
        name = f"{layer}.{attribute}"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, layer, original, *args, **kwargs)

        setattr(owner, attribute, traced)
        if isinstance(owner, type):
            return lambda: setattr(owner, attribute, original)
        return lambda: delattr(owner, attribute)

    def self_times(self, spans: Optional[List[Span]] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total and self seconds (duration minus the
        part covered by child spans)."""
        spans = self.spans if spans is None else spans
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, _, _, _, layer, start, end in spans:
            entry = layers[layer]
            entry["spans"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += max(0.0, end - start - child_time.get(span_id, 0.0))
        return dict(layers)

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[3] == name]

    def export(self) -> List[dict]:
        keys = ("id", "parent", "trace", "name", "layer", "start", "end")
        return [
            dict(zip(keys, (*span[:2], None if span[2] is None else str(span[2]), *span[3:])))
            for span in self.spans
        ]


def durations_s(spans: List[Span]) -> List[float]:
    return [end - start for *_, start, end in spans]
