"""Serving observability: latency percentiles, throughput and queue health.

:class:`ServeMetrics` is the single metrics surface of the serving subsystem.
Every component reports into it — the server records submissions, flushes and
completion latencies, the micro-batcher records drops and queue depth, the
adapter registry records adaptation runs and tier traffic — and
:meth:`ServeMetrics.snapshot` renders one flat dictionary suitable for
logging, the benchmark JSONs and the replay driver's report.

Two export surfaces sit on top of the counters:

* :meth:`ServeMetrics.to_prometheus` renders the Prometheus text exposition
  format (counters, gauges and a latency summary with quantiles), optionally
  with a fixed label set — :class:`repro.serve.ProcessShardedPoseServer`
  labels each shard's block with ``shard="<index>"``.
* :meth:`ServeMetrics.aggregate` merges several instances (one per serving
  shard) into a single snapshot: counters sum, high-water marks take the
  maximum, and latency percentiles are computed over the pooled windows.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["ServeMetrics", "merge_expositions", "percentile", "prometheus_exposition"]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a sequence (0.0 for an empty one)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return float(ordered[rank])


class ServeMetrics:
    """Counters and latency window describing a :class:`PoseServer`'s health.

    Parameters
    ----------
    latency_window:
        Number of most recent per-request latencies retained for the
        percentile estimates (bounded so long-running servers do not grow).
    clock:
        Monotonic time source; injectable so tests can drive virtual time.
    """

    def __init__(
        self, latency_window: int = 2048, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        if latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        self._clock = clock
        self._latencies: "deque[float]" = deque(maxlen=latency_window)
        self._class_latencies: Dict[str, "deque[float]"] = {}
        self._class_completed: Dict[str, int] = {}
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.shed = 0
        self.deadline_misses = 0
        self.flushes = 0
        self.batched_frames = 0
        self.max_batch_seen = 0
        self.max_queue_depth_seen = 0
        self.session_evictions = 0
        self.adaptation_runs = 0
        self.adapted_users = 0
        self.adapter_hot_hits = 0
        self.adapter_warm_hits = 0
        self.adapter_cold_misses = 0
        self.adapter_demotions_warm = 0
        self.adapter_demotions_cold = 0
        self.restarts = 0
        self.spill_quarantined = 0
        self.deadline_shed = 0
        self.shards_degraded = 0
        self.latency_sum_s = 0.0
        self._first_submit_at: Optional[float] = None
        self._last_completion_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_submit(self, queue_depth: int) -> None:
        self.submitted += 1
        if self._first_submit_at is None:
            self._first_submit_at = self._clock()
        if queue_depth > self.max_queue_depth_seen:
            self.max_queue_depth_seen = queue_depth

    def record_flush(self, batch_size: int) -> None:
        self.flushes += 1
        self.batched_frames += batch_size
        if batch_size > self.max_batch_seen:
            self.max_batch_seen = batch_size

    def record_completion(
        self,
        latency_s: float,
        traffic_class: Optional[str] = None,
        deadline_missed: bool = False,
    ) -> None:
        self.completed += 1
        self._latencies.append(latency_s)
        self.latency_sum_s += latency_s
        self._last_completion_at = self._clock()
        if traffic_class is not None:
            window = self._class_latencies.get(traffic_class)
            if window is None:
                window = deque(maxlen=self._latencies.maxlen)
                self._class_latencies[traffic_class] = window
            window.append(latency_s)
            self._class_completed[traffic_class] = (
                self._class_completed.get(traffic_class, 0) + 1
            )
        if deadline_missed:
            self.deadline_misses += 1

    def record_drop(self) -> None:
        self.dropped += 1

    def record_shed(self) -> None:
        """One request shed by admission control (rate limit / overload)."""
        self.shed += 1

    def record_session_eviction(self) -> None:
        self.session_evictions += 1

    def record_adaptation(self, users: int) -> None:
        self.adaptation_runs += 1
        self.adapted_users += users

    def record_adapter_access(self, tier: str) -> None:
        """One adapter lookup, by the lifecycle tier that answered it.

        ``"hot"`` — served from memory; ``"warm"`` — promoted from the spill
        directory; ``"cold"`` — the user's state was dropped and must be
        re-onboarded (a miss).
        """
        if tier == "hot":
            self.adapter_hot_hits += 1
        elif tier == "warm":
            self.adapter_warm_hits += 1
        elif tier == "cold":
            self.adapter_cold_misses += 1
        else:
            raise ValueError(f"unknown adapter tier '{tier}'")

    def record_adapter_demotion(self, tier: str) -> None:
        """One adapter demotion into ``tier`` (``"warm"`` or ``"cold"``)."""
        if tier == "warm":
            self.adapter_demotions_warm += 1
        elif tier == "cold":
            self.adapter_demotions_cold += 1
        else:
            raise ValueError(f"unknown demotion tier '{tier}'")

    def record_spill_quarantined(self) -> None:
        """One adapter spill archive failed verification and was set aside."""
        self.spill_quarantined += 1

    def record_deadline_shed(self) -> None:
        """One request shed because its deadline budget was already spent."""
        self.deadline_shed += 1

    def set_shards_degraded(self, count: int) -> None:
        """Gauge: shards whose restart budget is exhausted (degraded)."""
        if count < 0:
            raise ValueError("shards_degraded must be non-negative")
        self.shards_degraded = count

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def latency_p50_ms(self) -> float:
        return percentile(self._latencies, 0.50) * 1000.0

    @property
    def latency_p95_ms(self) -> float:
        return percentile(self._latencies, 0.95) * 1000.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_frames / self.flushes if self.flushes else 0.0

    @property
    def throughput_fps(self) -> float:
        """Completed predictions per second of serving wall time."""
        if self._first_submit_at is None or self._last_completion_at is None:
            return 0.0
        elapsed = self._last_completion_at - self._first_submit_at
        return self.completed / elapsed if elapsed > 0 else 0.0

    @property
    def adapter_tier_hit_rate(self) -> float:
        """Fraction of adapter lookups answered without re-onboarding."""
        accesses = self.adapter_hot_hits + self.adapter_warm_hits + self.adapter_cold_misses
        return (
            (self.adapter_hot_hits + self.adapter_warm_hits) / accesses if accesses else 0.0
        )

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict[str, float]:
        """One flat dictionary of every counter and derived statistic."""
        report: Dict[str, float] = {
            "submitted": self.submitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "flushes": self.flushes,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_seen": self.max_batch_seen,
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "session_evictions": self.session_evictions,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "throughput_fps": self.throughput_fps,
            "adaptation_runs": self.adaptation_runs,
            "adapted_users": self.adapted_users,
            "adapter_hot_hits": self.adapter_hot_hits,
            "adapter_warm_hits": self.adapter_warm_hits,
            "adapter_cold_misses": self.adapter_cold_misses,
            "adapter_demotions_warm": self.adapter_demotions_warm,
            "adapter_demotions_cold": self.adapter_demotions_cold,
            "adapter_tier_hit_rate": self.adapter_tier_hit_rate,
            "restarts": self.restarts,
            "spill_quarantined": self.spill_quarantined,
            "deadline_shed": self.deadline_shed,
            "shards_degraded": self.shards_degraded,
        }
        for name in sorted(self._class_completed):
            report[f"class_{name}_completed"] = self._class_completed[name]
            report[f"class_{name}_latency_p95_ms"] = (
                percentile(self._class_latencies.get(name, ()), 0.95) * 1000.0
            )
        if queue_depth is not None:
            report["queue_depth"] = queue_depth
        return report

    # ------------------------------------------------------------------
    # Cross-process state transfer
    # ------------------------------------------------------------------
    #: plain integer/float counters carried verbatim by the state dict.
    _STATE_COUNTERS = (
        "submitted",
        "completed",
        "dropped",
        "shed",
        "deadline_misses",
        "flushes",
        "batched_frames",
        "max_batch_seen",
        "max_queue_depth_seen",
        "session_evictions",
        "adaptation_runs",
        "adapted_users",
        "adapter_hot_hits",
        "adapter_warm_hits",
        "adapter_cold_misses",
        "adapter_demotions_warm",
        "adapter_demotions_cold",
        "restarts",
        "spill_quarantined",
        "deadline_shed",
        "shards_degraded",
        "latency_sum_s",
    )

    def state_dict(self) -> Dict[str, object]:
        """Full picklable state, exact enough to rebuild this instance.

        Unlike :meth:`snapshot` (a flat report of *derived* figures), the
        state dict carries the raw latency window and wall-clock anchors, so
        a :class:`ServeMetrics` rebuilt with :meth:`from_state` in another
        process aggregates (:meth:`aggregate`) and renders Prometheus output
        identically to the original.  This is how process-per-shard serving
        ships each worker's metrics over the transport.
        """
        state: Dict[str, object] = {key: getattr(self, key) for key in self._STATE_COUNTERS}
        state["latency_window"] = self._latencies.maxlen
        state["latencies"] = list(self._latencies)
        state["class_latencies"] = {
            name: list(window) for name, window in self._class_latencies.items()
        }
        state["class_completed"] = dict(self._class_completed)
        state["first_submit_at"] = self._first_submit_at
        state["last_completion_at"] = self._last_completion_at
        return state

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], clock: Callable[[], float] = time.perf_counter
    ) -> "ServeMetrics":
        """Rebuild an instance from a :meth:`state_dict` payload."""
        metrics = cls(latency_window=int(state["latency_window"]), clock=clock)
        for key in cls._STATE_COUNTERS:
            # .get keeps older-release payloads (without newer counters) valid.
            setattr(metrics, key, state.get(key, 0))
        metrics._latencies.extend(state["latencies"])
        for name, values in state.get("class_latencies", {}).items():
            window = deque(maxlen=metrics._latencies.maxlen)
            window.extend(values)
            metrics._class_latencies[name] = window
        metrics._class_completed.update(state.get("class_completed", {}))
        metrics._first_submit_at = state["first_submit_at"]
        metrics._last_completion_at = state["last_completion_at"]
        return metrics

    # ------------------------------------------------------------------
    # Cross-shard aggregation
    # ------------------------------------------------------------------
    #: snapshot keys that are high-water marks (merged with max, not sum).
    _AGGREGATE_MAX_KEYS = ("max_batch_seen", "max_queue_depth_seen")
    #: snapshot keys that are ratios/derived figures, recomputed from the
    #: merged raw numbers rather than combined per-shard.
    _AGGREGATE_DERIVED_KEYS = (
        "mean_batch_size",
        "latency_p50_ms",
        "latency_p95_ms",
        "throughput_fps",
        "adapter_tier_hit_rate",
    )

    @staticmethod
    def _is_class_latency_key(key: str) -> bool:
        """Per-class percentile keys (``class_<name>_latency_p95_ms``) are
        derived figures, recomputed on merge rather than summed."""
        return key.startswith("class_") and key.endswith("_latency_p95_ms")

    @classmethod
    def aggregate(
        cls, metrics: Sequence[Union["ServeMetrics", Mapping[str, float]]]
    ) -> Dict[str, float]:
        """Merge several shards or backends into one snapshot dict.

        The schema is :meth:`snapshot`'s: plain counters sum (so a counter
        added to the snapshot aggregates correctly with no change here),
        high-water marks take the per-shard maximum, latency percentiles
        are computed over the pooled windows, and throughput spans the
        earliest submission to the latest completion across all shards
        (shards serve concurrently interleaved traffic, so their wall
        clocks overlap rather than add).

        Inputs may be live instances *or* plain snapshot mappings — a
        cluster router only holds each backend's ``metrics_snapshot()``
        dict, never the instance.  Heterogeneous snapshots are fine: a key
        absent from one backend (an older release without a newer counter)
        aggregates as zero instead of raising.  Two figures are necessarily
        approximate once any input is snapshot-only: latency percentiles
        become a completion-weighted average of per-backend percentiles
        (the raw windows are not in the snapshot), and throughput sums
        across backends (they serve concurrently).
        """
        if not metrics:
            raise ValueError("at least one ServeMetrics instance is required")
        instances = [m for m in metrics if isinstance(m, ServeMetrics)]
        exact = len(instances) == len(metrics)
        snapshots = [
            m.snapshot() if isinstance(m, ServeMetrics) else dict(m) for m in metrics
        ]
        keys: list = []
        for snapshot in snapshots:
            for key in snapshot:
                if key not in keys:
                    keys.append(key)
        report: Dict[str, float] = {}
        for key in keys:
            if key in cls._AGGREGATE_DERIVED_KEYS or cls._is_class_latency_key(key):
                continue
            values = [snapshot.get(key, 0) for snapshot in snapshots]
            report[key] = max(values) if key in cls._AGGREGATE_MAX_KEYS else sum(values)

        if exact:
            flushes = sum(m.flushes for m in instances)
            batched_frames = sum(m.batched_frames for m in instances)
            report["mean_batch_size"] = batched_frames / flushes if flushes else 0.0

            pooled_latencies = [value for m in instances for value in m._latencies]
            report["latency_p50_ms"] = percentile(pooled_latencies, 0.50) * 1000.0
            report["latency_p95_ms"] = percentile(pooled_latencies, 0.95) * 1000.0

            class_names = sorted(
                {name for m in instances for name in m._class_latencies}
            )
            for name in class_names:
                pooled = [
                    value
                    for m in instances
                    for value in m._class_latencies.get(name, ())
                ]
                report[f"class_{name}_latency_p95_ms"] = percentile(pooled, 0.95) * 1000.0

            first_submits = [
                m._first_submit_at for m in instances if m._first_submit_at is not None
            ]
            last_completions = [
                m._last_completion_at for m in instances if m._last_completion_at is not None
            ]
            report["throughput_fps"] = 0.0
            if first_submits and last_completions:
                elapsed = max(last_completions) - min(first_submits)
                if elapsed > 0:
                    report["throughput_fps"] = report["completed"] / elapsed
        else:
            flushes = sum(snapshot.get("flushes", 0) for snapshot in snapshots)
            batched_frames = 0.0
            for source, snapshot in zip(metrics, snapshots):
                if isinstance(source, ServeMetrics):
                    batched_frames += source.batched_frames
                else:
                    batched_frames += snapshot.get("mean_batch_size", 0.0) * snapshot.get(
                        "flushes", 0
                    )
            report["mean_batch_size"] = batched_frames / flushes if flushes else 0.0

            completed = sum(snapshot.get("completed", 0) for snapshot in snapshots)
            for key in ("latency_p50_ms", "latency_p95_ms"):
                report[key] = (
                    sum(
                        snapshot.get(key, 0.0) * snapshot.get("completed", 0)
                        for snapshot in snapshots
                    )
                    / completed
                    if completed
                    else 0.0
                )
            report["throughput_fps"] = sum(
                snapshot.get("throughput_fps", 0.0) for snapshot in snapshots
            )
            for key in keys:
                if not cls._is_class_latency_key(key):
                    continue
                weight_key = key[: -len("latency_p95_ms")] + "completed"
                weight = sum(snapshot.get(weight_key, 0) for snapshot in snapshots)
                report[key] = (
                    sum(
                        snapshot.get(key, 0.0) * snapshot.get(weight_key, 0)
                        for snapshot in snapshots
                    )
                    / weight
                    if weight
                    else 0.0
                )

        tier_hits = report.get("adapter_hot_hits", 0) + report.get("adapter_warm_hits", 0)
        tier_accesses = tier_hits + report.get("adapter_cold_misses", 0)
        report["adapter_tier_hit_rate"] = (
            tier_hits / tier_accesses if tier_accesses else 0.0
        )
        return report

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    #: metric name -> (attribute, type, help text)
    _PROMETHEUS_COUNTERS = (
        ("fuse_serve_requests_submitted_total", "submitted", "Requests accepted for serving."),
        ("fuse_serve_requests_completed_total", "completed", "Predictions returned to callers."),
        ("fuse_serve_requests_dropped_total", "dropped", "Requests dropped under backpressure."),
        ("fuse_serve_requests_shed_total", "shed", "Requests shed by admission control."),
        (
            "fuse_serve_deadline_misses_total",
            "deadline_misses",
            "Completions delivered after their class deadline.",
        ),
        ("fuse_serve_flushes_total", "flushes", "Micro-batch flushes executed."),
        ("fuse_serve_batched_frames_total", "batched_frames", "Frames served through micro-batches."),
        ("fuse_serve_session_evictions_total", "session_evictions", "LRU session evictions."),
        ("fuse_serve_adaptation_runs_total", "adaptation_runs", "Grouped adaptation calls."),
        ("fuse_serve_adapted_users_total", "adapted_users", "Users adapted across all runs."),
        ("fuse_serve_adapter_hot_hits_total", "adapter_hot_hits", "Adapter lookups served from memory."),
        (
            "fuse_serve_adapter_warm_hits_total",
            "adapter_warm_hits",
            "Adapter lookups promoted from the warm spill tier.",
        ),
        (
            "fuse_serve_adapter_cold_misses_total",
            "adapter_cold_misses",
            "Adapter lookups for dropped users requiring re-onboarding.",
        ),
        (
            "fuse_serve_adapter_demotions_warm_total",
            "adapter_demotions_warm",
            "Adapter demotions from the hot tier to the warm spill tier.",
        ),
        (
            "fuse_serve_adapter_demotions_cold_total",
            "adapter_demotions_cold",
            "Adapter state drops to the cold tier.",
        ),
        ("fuse_serve_restarts_total", "restarts", "Shard worker processes restarted."),
        (
            "fuse_serve_spill_quarantined_total",
            "spill_quarantined",
            "Adapter spill archives that failed verification and were quarantined.",
        ),
        (
            "fuse_serve_deadline_shed_total",
            "deadline_shed",
            "Requests shed because their deadline budget was already spent.",
        ),
    )
    _PROMETHEUS_GAUGES = (
        ("fuse_serve_mean_batch_size", "mean_batch_size", "Mean frames per micro-batch flush."),
        ("fuse_serve_max_batch_seen", "max_batch_seen", "Largest micro-batch observed."),
        (
            "fuse_serve_max_queue_depth_seen",
            "max_queue_depth_seen",
            "Deepest pending queue observed.",
        ),
        ("fuse_serve_throughput_fps", "throughput_fps", "Completed predictions per second."),
        (
            "fuse_serve_adapter_tier_hit_rate",
            "adapter_tier_hit_rate",
            "Fraction of adapter lookups answered from the hot or warm tier.",
        ),
        (
            "fuse_serve_shards_degraded",
            "shards_degraded",
            "Shards whose restart budget is exhausted (degraded).",
        ),
    )
    _PROMETHEUS_QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def to_prometheus(
        self,
        labels: Optional[Mapping[str, str]] = None,
        queue_depth: Optional[int] = None,
    ) -> str:
        """Render this instance in the Prometheus text exposition format.

        ``labels`` is attached to every sample (e.g. ``{"shard": "0"}``).
        To expose several instances — one per serving shard — in one valid
        exposition, use :func:`prometheus_exposition`, which groups every
        metric's samples under a single ``# HELP`` / ``# TYPE`` header.
        """
        return prometheus_exposition([(labels, self, queue_depth)])


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format (\\\\, \\", \\n)."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels.items()
    )
    return "{" + rendered + "}"


def prometheus_exposition(
    instances: Sequence[
        tuple[Optional[Mapping[str, str]], ServeMetrics, Optional[int]]
    ],
) -> str:
    """Render labelled :class:`ServeMetrics` instances as one text exposition.

    ``instances`` is a sequence of ``(labels, metrics, queue_depth)`` tuples
    (``labels`` and ``queue_depth`` may be ``None``).  The output groups all
    label sets of each metric under one ``# HELP`` / ``# TYPE`` header, as
    the exposition format requires, so a sharded server can expose every
    shard with a ``shard="<i>"`` label in a single scrape body.
    """
    if not instances:
        raise ValueError("at least one metrics instance is required")
    lines: list[str] = []

    def emit_family(name: str, kind: str, help_text: str, values) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(values)

    for name, attribute, help_text in ServeMetrics._PROMETHEUS_COUNTERS:
        emit_family(
            name,
            "counter",
            help_text,
            [
                f"{name}{_format_labels(labels)} {float(getattr(metrics, attribute)):.10g}"
                for labels, metrics, _ in instances
            ],
        )
    for name, attribute, help_text in ServeMetrics._PROMETHEUS_GAUGES:
        emit_family(
            name,
            "gauge",
            help_text,
            [
                f"{name}{_format_labels(labels)} {float(getattr(metrics, attribute)):.10g}"
                for labels, metrics, _ in instances
            ],
        )
    if any(queue_depth is not None for _, _, queue_depth in instances):
        emit_family(
            "fuse_serve_queue_depth",
            "gauge",
            "Requests pending in the queue.",
            [
                f"fuse_serve_queue_depth{_format_labels(labels)} {queue_depth}"
                for labels, _, queue_depth in instances
                if queue_depth is not None
            ],
        )

    name = "fuse_serve_request_latency_seconds"
    summary_lines = []
    for labels, metrics, _ in instances:
        for quantile in ServeMetrics._PROMETHEUS_QUANTILES:
            quantile_labels = dict(labels or {})
            quantile_labels["quantile"] = f"{quantile:g}"
            summary_lines.append(
                f"{name}{_format_labels(quantile_labels)} "
                f"{percentile(metrics._latencies, quantile):.10g}"
            )
        summary_lines.append(f"{name}_sum{_format_labels(labels)} {metrics.latency_sum_s:.10g}")
        summary_lines.append(f"{name}_count{_format_labels(labels)} {metrics.completed}")
    emit_family(name, "summary", "Request latency from submission to completion.", summary_lines)
    return "\n".join(lines) + "\n"


def _inject_labels(sample: str, rendered: str) -> str:
    """Add pre-rendered ``key="value"`` pairs to one sample line's label set."""
    if not rendered:
        return sample
    metric, _, value = sample.rpartition(" ")
    brace = metric.find("{")
    if brace < 0:
        return f"{metric}{{{rendered}}} {value}"
    existing = metric[brace + 1 : -1]
    merged = f"{rendered},{existing}" if existing else rendered
    return f"{metric[:brace]}{{{merged}}} {value}"


def _sample_family(metric_name: str, families: Mapping[str, object]) -> str:
    """Map a sample's metric name to its family (summaries emit suffixes)."""
    if metric_name in families:
        return metric_name
    for suffix in ("_sum", "_count", "_bucket"):
        if metric_name.endswith(suffix) and metric_name[: -len(suffix)] in families:
            return metric_name[: -len(suffix)]
    return metric_name


def merge_expositions(
    parts: Sequence[Tuple[str, Optional[Mapping[str, str]]]],
) -> str:
    """Merge per-backend exposition texts into one valid cluster exposition.

    ``parts`` is a sequence of ``(text, labels)`` pairs; each ``text`` is a
    complete Prometheus text exposition (as returned by a backend's
    ``prometheus`` frame) and ``labels`` — typically ``{"instance": name}``
    — is injected into every sample of that part.  Samples of the same
    metric from different backends are regrouped under a single ``# HELP``
    / ``# TYPE`` header, which the exposition format requires and naive
    concatenation violates.

    This works on the *text* because a router only ever holds the rendered
    exposition from each backend's wire snapshot, never live
    :class:`ServeMetrics` instances.
    """
    if not parts:
        raise ValueError("at least one exposition part is required")
    families: Dict[str, Dict[str, object]] = {}
    order: list = []

    def family(name: str) -> Dict[str, object]:
        if name not in families:
            families[name] = {"help": None, "type": None, "samples": []}
            order.append(name)
        return families[name]

    for text, labels in parts:
        rendered = _format_labels(labels)[1:-1] if labels else ""
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                name, _, help_text = line[len("# HELP ") :].partition(" ")
                entry = family(name)
                if entry["help"] is None:
                    entry["help"] = help_text
            elif line.startswith("# TYPE "):
                name, _, kind = line[len("# TYPE ") :].partition(" ")
                entry = family(name)
                if entry["type"] is None:
                    entry["type"] = kind
            elif line.startswith("#"):
                continue
            else:
                metric = line.partition("{")[0].partition(" ")[0]
                entry = family(_sample_family(metric, families))
                entry["samples"].append(_inject_labels(line, rendered))

    lines: list = []
    for name in order:
        entry = families[name]
        if entry["help"] is not None:
            lines.append(f"# HELP {name} {entry['help']}")
        if entry["type"] is not None:
            lines.append(f"# TYPE {name} {entry['type']}")
        lines.extend(entry["samples"])
    return "\n".join(lines) + "\n"
