"""The in-process streaming pose server.

:class:`PoseServer` is the front door of the serving subsystem.  It ties the
pieces together per request:

1. the user's :class:`UserSession` turns the incoming radar frame into a
   fused point cloud (streaming multi-frame fusion);
2. the :class:`MicroBatcher` coalesces fused frames *across users* until the
   batch is full or the caller flushes (a socket round flushes at once);
3. a flush builds every feature map in one vectorized
   :meth:`FeatureMapBuilder.build_batch` call, then routes base-model users
   through the batch-invariant :class:`SharedParameterKernel` and adapted
   users by the registry's scope, with their per-user parameter slices from
   the :class:`AdapterRegistry`: ``lora`` through
   :meth:`SharedParameterKernel.predict_lowrank` (the shared base in fixed
   blocks plus per-frame rank-r deltas), ``last`` through
   :meth:`AdapterRegistry.trunk_embed` plus :func:`repro.nn.linear_batched`
   over the frames' personal heads, and ``all`` one frame at a time through
   :meth:`AdapterRegistry.predict_full` (the registry's working clone of the
   model, bound to that user's stored parameter arrays).

Every inference route is batch-composition invariant, so a replay of N
interleaved users is bitwise identical to serving each user alone — the
property that makes micro-batching safe to deploy and simple to test.

The server is single-threaded and synchronous by design: "concurrency" is
logical (many interleaved user streams), a batch closes only when it fills
or on an explicit :meth:`flush`, and every run is deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..core.pipeline import FusePoseEstimator
from ..dataset.loader import ArrayDataset
from ..dataset.sample import PoseDataset
from ..radar.pointcloud import PointCloudFrame
from .adapters import AdapterRegistry
from .batcher import FrameDropped, MicroBatcher, PendingPrediction, ServeRequest
from .config import ServeConfig
from .faults import maybe_injector
from .kernel import SharedParameterKernel
from .metrics import ServeMetrics
from .migration import export_user_state, import_user_state
from .policy import AdapterPolicy
from .session import SessionManager

__all__ = ["PoseServer"]


class PoseServer:
    """Streaming multi-user pose serving on top of a trained estimator.

    Parameters
    ----------
    estimator:
        A (typically trained) :class:`FusePoseEstimator`.  The server reuses
        its fusion setting, feature builder and model; the model is treated
        as read-only and its parameters are read once, into the registry's
        snapshot, when the server is built — per-user adaptation lives in
        the registry, never in the shared weights.
    config:
        Scheduling and capacity knobs (:class:`ServeConfig`).  Its
        ``adapter`` field is the canonical place to configure per-user
        adaptation.
    clock:
        Monotonic time source, injectable for deterministic latency tests.
    policy:
        The per-user :class:`AdapterPolicy`.  Resolution order: this kwarg,
        then ``config.adapter``, then the default policy (``scope="all"``,
        the paper's ~5-epoch online regime).
    """

    def __init__(
        self,
        estimator: FusePoseEstimator,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
        policy: Optional[AdapterPolicy] = None,
    ) -> None:
        self.estimator = estimator
        self.config = config if config is not None else ServeConfig()
        if policy is None:
            policy = self.config.adapter
        self.policy = policy if policy is not None else AdapterPolicy()
        self.clock = clock
        self.scheduler = self.config.scheduler
        self.metrics = ServeMetrics(clock=clock)
        self.sessions = SessionManager(
            num_context_frames=estimator.config.num_context_frames,
            max_sessions=self.config.max_sessions,
            on_evict=lambda _session: self.metrics.record_session_eviction(),
        )
        self.fault_injector = maybe_injector(self.config.fault_plan)
        self.registry = AdapterRegistry(
            estimator.model,
            policy=self.policy,
            metrics=self.metrics,
            gemm_block=self.config.block_width,
            fault_injector=self.fault_injector,
        )
        # Built over the registry's snapshot: one copy of the base weights
        # serves base users and every adaptation scope.
        self.kernel = SharedParameterKernel(
            estimator.model,
            parameters=self.registry.base_parameters,
            block=self.config.block_width,
        )
        self._batcher = MicroBatcher(self.config, metrics=self.metrics)
        self._sequence = 0

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of requests waiting for the next micro-batch."""
        return len(self._batcher)

    def enqueue(
        self,
        user_id: Hashable,
        frame: PointCloudFrame,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> PendingPrediction:
        """Accept one frame; may trigger a flush when the batch fills up.

        ``priority`` names the traffic class (``"interactive"`` / ``"bulk"``
        by default; ``None`` = the policy's default class) whose latency
        budget becomes the request's deadline; ``deadline_ms`` overrides the
        class budget for this one request.  Returns a
        :class:`PendingPrediction` handle that resolves at the next flush
        (or immediately if this request completed the batch).
        """
        # Resolve the class before admission: an unknown class must reject
        # without evicting anything under drop_oldest.
        traffic_class = self.scheduler.resolve(priority)
        budget_s = (
            deadline_ms / 1000.0 if deadline_ms is not None else traffic_class.budget_s
        )
        if not budget_s >= 0:  # NaN too: it compares false against every bound
            raise ValueError("deadline_ms must be non-negative")
        if deadline_ms is not None and budget_s <= 0:
            # A request that arrives with its deadline already spent (the
            # router decremented ``deadline_ms`` by elapsed queue/transit
            # time) is shed before admission — no session observe, no
            # fusion-ring trace — instead of computed and discarded.
            self.metrics.record_deadline_shed()
            raise FrameDropped(
                f"deadline exhausted before admission for user {user_id!r}"
            )
        # Admission next: a request rejected under backpressure must leave
        # no trace, in particular not in the user's fusion ring.
        self._batcher.admit()
        session = self.sessions.get_or_create(user_id)
        fused = session.observe(frame)
        now = self.clock()
        pending = PendingPrediction(user_id, self._sequence, flush=self.flush)
        self._sequence += 1
        request = ServeRequest(
            user_id=user_id,
            fused=fused,
            pending=pending,
            arrival=now,
            deadline=now + budget_s,
            traffic_class=traffic_class.name,
        )
        self._batcher.enqueue(request)
        self.metrics.record_submit(queue_depth=len(self._batcher))
        if self._batcher.full:
            self.flush()
        return pending

    def enqueue_many(
        self, items: Sequence[tuple]
    ) -> List[Union[PendingPrediction, Exception]]:
        """Enqueue many frames in order, one outcome per slot.

        Each item is ``(user_id, frame)``, optionally followed by the
        frame's ``priority`` and ``deadline_ms`` (see :meth:`enqueue`).
        Each slot holds the handle, or the exception its enqueue raised
        (``FrameDropped`` for a spent deadline, ``QueueFull`` under the
        ``reject`` backpressure policy).  Capturing per slot — rather than
        raising mid-batch — keeps the already-admitted prefix addressable:
        those frames *did* enter their users' fusion rings, so a caller
        must never blindly resubmit them.  The socket front-end hands each
        group-commit round to the backend through this call.
        """
        outcomes: List[Union[PendingPrediction, Exception]] = []
        for user_id, frame, *scheduling in items:
            try:
                outcomes.append(self.enqueue(user_id, frame, *scheduling))
            except Exception as error:
                outcomes.append(error)
        return outcomes

    def submit(
        self,
        user_id: Hashable,
        frame: PointCloudFrame,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Synchronous prediction: enqueue, flush, return ``(joints, 3)``.

        Under logical concurrency (other requests already pending) the flush
        still coalesces them with this frame into one micro-batch.
        """
        return self.enqueue(
            user_id, frame, priority=priority, deadline_ms=deadline_ms
        ).result(flush=True)

    def flush(self) -> int:
        """Execute one micro-batch now; returns the number of predictions."""
        requests = self._batcher.drain()
        if not requests:
            return 0
        features = self.estimator.feature_builder.build_batch(
            [request.fused for request in requests]
        )
        outputs = np.empty((len(requests), self.estimator.model.config.output_dim))

        base_rows: List[int] = []
        adapted_rows: List[int] = []
        for row, request in enumerate(requests):
            (adapted_rows if request.user_id in self.registry else base_rows).append(row)

        if base_rows:
            outputs[base_rows] = self.kernel.predict(features[base_rows])
        if adapted_rows:
            try:
                outputs[adapted_rows] = self._predict_adapted(
                    [requests[row].user_id for row in adapted_rows],
                    features[adapted_rows],
                )
            except KeyError:
                # A warm user's spill file was quarantined during the gather
                # (corrupted archive, failed checksum): their registry
                # membership changed mid-flush.  Re-split by the current
                # membership and serve the defected rows from the base model
                # — the request still resolves, degradation shows up only in
                # the ``spill_quarantined`` counter.
                survivors = [
                    row for row in adapted_rows if requests[row].user_id in self.registry
                ]
                defected = [row for row in adapted_rows if row not in set(survivors)]
                if defected:
                    outputs[defected] = self.kernel.predict(features[defected])
                if survivors:
                    outputs[survivors] = self._predict_adapted(
                        [requests[row].user_id for row in survivors],
                        features[survivors],
                    )

        now = self.clock()
        self.metrics.record_flush(len(requests))
        joints = outputs.reshape(len(requests), -1, 3)
        for row, request in enumerate(requests):
            request.pending._resolve(joints[row])
            self.metrics.record_completion(
                now - request.arrival,
                traffic_class=request.traffic_class,
                deadline_missed=now > request.deadline,
            )
        return len(requests)

    def _predict_adapted(self, user_ids: List[Hashable], features: np.ndarray) -> np.ndarray:
        """Grouped inference with per-user parameter slices.

        Under ``scope="last"`` the shared trunk embeds every adapted frame
        through the batch-invariant kernel and only the tiny personal heads
        run per-user.  Under ``scope="lora"`` the shared base runs through
        the fixed-block kernel with each request's rank-r factor slices
        applied as per-frame deltas (:meth:`SharedParameterKernel.predict_lowrank`)
        — near-base-model speed with full-network personalization.  Under
        ``scope="all"`` each request runs alone, a batch of one, through
        :meth:`AdapterRegistry.predict_full` (no stacked copy).  Every route
        is bitwise identical to serving each request alone.
        """
        if self.registry.scope == "lora":
            factors = self.registry.gather(user_ids)
            return self.kernel.predict_lowrank(features, factors)
        if self.registry.scope == "last":
            hidden = self.registry.trunk_embed(features)
            params = self.registry.gather(user_ids)
            bias = params[1] if len(params) > 1 else None
            with nn.no_grad():
                stacked = nn.linear_batched(nn.Tensor(hidden[:, None]), params[0], bias)
            return stacked.numpy()[:, 0]
        return self.registry.predict_full(user_ids, features)

    # ------------------------------------------------------------------
    # Per-user adaptation
    # ------------------------------------------------------------------
    def adapt_user(
        self,
        user_id: Hashable,
        dataset: Union[PoseDataset, ArrayDataset],
        epochs: Optional[int] = None,
    ) -> None:
        """Fine-tune a personal parameter set from a few labelled frames."""
        self.adapt_users({user_id: dataset}, epochs=epochs)

    def adapt_users(
        self,
        datasets: Mapping[Hashable, Union[PoseDataset, ArrayDataset]],
        epochs: Optional[int] = None,
    ) -> None:
        """Adapt many users (see :meth:`AdapterRegistry.adapt_many`).

        Under ``scope="last"`` and ``scope="lora"``, users with equally
        sized calibration sets share grouped task-batched calls; under
        ``scope="all"`` each user trains alone.  Labelled
        :class:`PoseDataset` inputs run through the estimator's prepare path
        (fusion + feature building).
        """
        arrays = {
            user_id: self.estimator.to_arrays(dataset)
            for user_id, dataset in datasets.items()
        }
        self.registry.adapt_many(arrays, epochs=epochs)

    def forget_user(self, user_id: Hashable) -> None:
        """Drop a user's session history and adapted parameters."""
        self.sessions.close(user_id)
        self.registry.remove(user_id)

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def export_user(self, user_id: Hashable, forget: bool = False) -> Optional[Dict]:
        """Snapshot one user's session ring + adapter archive (live migration).

        The pending micro-batch is flushed first so the snapshot sits after
        every admitted frame; ``forget=True`` drops the user from this
        server once exported.  Returns ``None`` for a user with no state.
        See :mod:`repro.serve.migration` for the schema.
        """
        return export_user_state(self, user_id, forget=forget)

    def import_user(self, state: Mapping) -> Hashable:
        """Install a user state exported by :meth:`export_user`; returns the id.

        The restored ring makes the user's next fusion window — and, through
        batch invariance, their next prediction — bitwise identical to what
        the exporting server would have produced.
        """
        return import_user_state(self, state)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, float]:
        """Serving metrics plus queue, session and adapter-tier gauges."""
        report = self.metrics.snapshot(queue_depth=len(self._batcher))
        report["sessions"] = len(self.sessions)
        report["adapted_parameter_sets"] = len(self.registry)
        for tier, count in self.registry.tier_sizes().items():
            report[f"adapter_tier_{tier}"] = count
        return report

    def to_prometheus(self) -> str:
        """Prometheus text exposition of this server's metrics.

        Façade parity with the sharded servers, so the socket front-end can
        expose any backend; a single server's samples carry no shard label.
        """
        return self.metrics.to_prometheus(queue_depth=self.pending)
