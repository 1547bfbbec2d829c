"""FUSE — Fast and Scalable Human Pose Estimation using mmWave Point Cloud.

A from-scratch reproduction of the DAC 2022 paper by An & Ogras, including
every substrate it depends on:

* :mod:`repro.nn` — NumPy neural-network framework (autograd, CNN layers,
  Adam, L1 loss),
* :mod:`repro.radar` — FMCW mmWave radar simulator (TI IWR1443-like) and
  point-cloud generation,
* :mod:`repro.body` — 19-joint kinematic body model with the ten MARS
  rehabilitation movements,
* :mod:`repro.dataset` — synthetic MARS-like dataset generation, splits and
  feature maps,
* :mod:`repro.core` — the FUSE framework itself: multi-frame fusion,
  meta-learning, fine-tuning, evaluation,
* :mod:`repro.runtime` — the shared execution-policy layer
  (:class:`repro.runtime.ExecutionPlan`, taken by dataset generation and
  the radar engine): worker pools, shard layout, deterministic per-shard
  seeding and result merging,
* :mod:`repro.engine` — the vectorized radar engine and the task-batched
  low-rank execution behind serving's grouped ``scope="lora"`` adaptation,
* :mod:`repro.serve` — the streaming multi-user serving layer
  (:class:`repro.serve.PoseServer` /
  :class:`repro.serve.ProcessShardedPoseServer`): per-user sessions,
  cross-user micro-batching, per-user adaptation at scale, multi-shard
  placement with one worker process per shard, and the asyncio socket
  front-end (:class:`repro.serve.PoseFrontend`),
* :mod:`repro.viz` — point-cloud rendering and result tables,
* :mod:`repro.experiments` — drivers that regenerate every table and figure
  of the paper's evaluation section, plus the ``fuse-experiment`` /
  ``fuse-serve`` command-line interfaces.

``docs/architecture.md`` walks the layer diagram and the data flow between
these packages.
"""

from . import body, core, dataset, engine, nn, radar, runtime, serve

__version__ = "0.5.0"

__all__ = [
    "nn",
    "radar",
    "body",
    "dataset",
    "core",
    "engine",
    "runtime",
    "serve",
    "__version__",
]
