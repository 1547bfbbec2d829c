"""``repro.serve`` — streaming multi-user pose serving, in-process to socket.

The serving subsystem turns the reproduction from an experiment harness into
a deployable system: many users stream radar frames, the server fuses each
user's frames (streaming multi-frame fusion over a per-session ring buffer),
coalesces requests *across users* into micro-batches, and answers through
batch-invariant inference kernels so coalescing never changes a prediction.

Pieces, inside-out:

* :class:`ServeConfig` — scheduling and capacity knobs;
* :class:`PoseServer` — the synchronous in-process front door
  (``submit(user_id, frame) -> (joints, 3)``);
* :class:`SessionManager` / :class:`UserSession` — per-user sliding frame
  windows feeding streaming fusion;
* :class:`MicroBatcher` — bounded arrival-order pending queue: a batch
  closes when it is full or flushed, with drop-oldest backpressure;
* :class:`AdapterRegistry` — per-user fine-tuned parameter sets, adapted in
  grouped task-batched calls (``scope="last"`` / ``"lora"``) or one user at
  a time (``scope="all"``) and gathered per micro-batch; each user's state
  is one CRC-checked record (:mod:`repro.nn.serialization`), spilled to
  disk and moved between backends in the same bytes;
* :class:`SharedParameterKernel` — fixed-GEMM-shape inference for the shared
  base parameters (the reason batched == unbatched, bitwise);
* :class:`ServeMetrics` — latency percentiles, throughput, queue depth and
  the adapter-tier hit rate, with Prometheus text export and picklable
  state transfer for cross-process aggregation;
* :class:`ProcessShardedPoseServer` — N :class:`PoseServer` shards behind
  one façade, each in its own worker process (:mod:`repro.serve.worker`);
  users hash onto shards (:func:`repro.runtime.shard_for`), each shard owns
  its registry/batcher/sessions, metrics aggregate across shards; bounded
  request/reply pipes, graceful shutdown, restart on crash, replay bitwise
  identical to a single :class:`PoseServer`;
* :class:`PoseFrontend` / :class:`AsyncPoseClient`
  (:mod:`repro.serve.frontend`) — the asyncio socket layer speaking the
  length-prefixed JSON wire protocol v2 of :mod:`repro.serve.transport`:
  pipelined multi-in-flight connections with out-of-order reply
  correlation by request id, and one request path — ``submit`` —
  group-committed per shard, so concurrent remote frames share the
  cross-user micro-batches;
* the replay driver (:func:`replay_users`, :func:`user_streams_from_dataset`)
  simulating N concurrent users from the synthetic dataset;
* the cluster tier (:mod:`repro.serve.router`) — :class:`PoseRouter`
  fronts N independent backend front-ends behind one socket: a
  :class:`HashRing` (consistent hashing, virtual nodes) owns user→backend
  placement, a :class:`HealthMonitor` ping-checks backends and a dead one
  fails over to the survivors (sessions restored from a
  :class:`SessionMirror`), planned topology changes live-migrate users
  (adapter + session ring over the wire, bitwise-identical predictions).
"""

from .adapters import AdapterRegistry
from .batcher import FrameDropped, MicroBatcher, PendingPrediction, QueueFull, ServeRequest
from .cli_utils import ReadyAddress, format_ready_line, parse_ready_line, wait_for_ready
from .clock import Clock, FakeClock, MonotonicClock, as_clock
from .config import ServeConfig
from .faults import FaultInjector, FaultPlan, FaultRule, RetryPolicy, maybe_injector
from .policy import AdapterPolicy
from .scheduling import RateLimited, SchedulingPolicy, TokenBucket, TrafficClass
from .frontend import (
    AsyncPoseClient,
    PoseFrontend,
    ServerClosing,
    ServerError,
    SocketServerBase,
)
from .health import HealthMonitor
from .kernel import SharedParameterKernel
from .metrics import ServeMetrics, merge_expositions, percentile, prometheus_exposition
from .migration import (
    MigrationError,
    SessionMirror,
    export_user_state,
    import_user_state,
)
from .ring import HashRing
from .router import BackendSpec, NoBackendAvailable, PoseRouter, RouterBackend
from .replay import (
    ReplayResult,
    adaptation_split,
    replay_users,
    sequential_reference,
    user_streams_from_dataset,
)
from .server import PoseServer
from .session import SessionManager, UserSession, streaming_window
from .sharded import ProcessShardedPoseServer
from .worker import ShardCrashed, ShardDegraded, ShardProcess, ShardRemoteError

__all__ = [
    "AdapterPolicy",
    "AdapterRegistry",
    "AsyncPoseClient",
    "BackendSpec",
    "Clock",
    "FakeClock",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FrameDropped",
    "HashRing",
    "HealthMonitor",
    "MicroBatcher",
    "MigrationError",
    "MonotonicClock",
    "NoBackendAvailable",
    "PendingPrediction",
    "PoseFrontend",
    "PoseRouter",
    "PoseServer",
    "ProcessShardedPoseServer",
    "QueueFull",
    "RateLimited",
    "ReadyAddress",
    "ReplayResult",
    "RetryPolicy",
    "RouterBackend",
    "SchedulingPolicy",
    "ServeConfig",
    "ServeMetrics",
    "ServeRequest",
    "ServerClosing",
    "ServerError",
    "SessionManager",
    "SessionMirror",
    "ShardCrashed",
    "ShardDegraded",
    "ShardProcess",
    "ShardRemoteError",
    "SharedParameterKernel",
    "SocketServerBase",
    "TokenBucket",
    "TrafficClass",
    "UserSession",
    "adaptation_split",
    "as_clock",
    "export_user_state",
    "format_ready_line",
    "import_user_state",
    "maybe_injector",
    "merge_expositions",
    "parse_ready_line",
    "percentile",
    "prometheus_exposition",
    "replay_users",
    "sequential_reference",
    "streaming_window",
    "user_streams_from_dataset",
    "wait_for_ready",
]
