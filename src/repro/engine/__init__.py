"""``repro.engine`` — the vectorized batched execution engine.

The engine is the architectural seam between "what the reproduction
computes" and "how fast it computes it".  Its pieces:

* :class:`BatchedRadarEngine` — whole-trajectory radar execution over
  ``(batch, frame, ...)`` arrays, with a per-frame reference twin selected
  by :meth:`repro.runtime.ExecutionPlan.reference`;
* task-batched low-rank model execution (the ``lowrank_*`` family), used
  by the serving tier's grouped ``scope="lora"`` adaptation.

The equivalence tests in ``tests/engine`` pin each batched path to its
reference, and ``benchmarks/test_engine_throughput.py`` tracks the radar
speedup in ``BENCH_engine.json``.
"""

from .functional import lowrank_forward, lowrank_parameters, lowrank_shapes
from .radar import BatchedRadarEngine

__all__ = [
    "BatchedRadarEngine",
    "lowrank_forward",
    "lowrank_parameters",
    "lowrank_shapes",
]
