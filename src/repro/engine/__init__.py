"""``repro.engine`` — the vectorized batched execution engine.

The engine is the architectural seam between "what the reproduction
computes" and "how fast it computes it".  Its pieces:

* :class:`BatchedRadarEngine` — whole-trajectory radar execution over
  ``(batch, frame, ...)`` arrays;
* task-batched functional model execution
  (:func:`replicate_parameters` / :func:`batched_forward`) used by the
  meta-learning and adaptation task loops.

Every vectorized path has a per-frame / per-task reference twin selected by
:meth:`repro.runtime.ExecutionPlan.reference`; the equivalence tests in
``tests/engine`` pin the two together numerically, and
``benchmarks/test_engine_throughput.py`` tracks the speedup as
``BENCH_engine.json``.
"""

from .functional import (
    batched_forward,
    lowrank_forward,
    lowrank_parameters,
    lowrank_shapes,
    predict_with_parameters,
    replicate_parameters,
    supports_batched_execution,
)
from .radar import BatchedRadarEngine

__all__ = [
    "BatchedRadarEngine",
    "batched_forward",
    "lowrank_forward",
    "lowrank_parameters",
    "lowrank_shapes",
    "predict_with_parameters",
    "replicate_parameters",
    "supports_batched_execution",
]
