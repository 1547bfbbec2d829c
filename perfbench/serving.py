"""What the serving child processes run (see :mod:`procs`).

* :func:`socket_host` is the deployed shape: ``fuse-serve``'s defaults
  (max batch 32, max delay 5 ms, queue 256, protocol v2, 32 in flight per
  connection) over one process shard, on TCP loopback.
* :func:`replay_job` and :func:`onboard_job` are the in-process workloads.
  After warm-up they report ready, then wait for ``"go"`` (measure) or
  ``"exit"`` (a set-up repetition that is only timed).

A measured job repeats independent passes until its time is spent; each pass
serves the same inputs on a fresh server, so every pass must answer with the
same bits.  With tracing on, passes alternate untraced and traced; spans come
only from the traced ones.
"""

from __future__ import annotations

import asyncio
import gc
import pickle
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.dataset.features import FeatureMapBuilder
from repro.serve import (
    AdapterPolicy,
    PoseFrontend,
    PoseServer,
    ProcessShardedPoseServer,
    ServeConfig,
    UserSession,
    replay_users,
)

from hostspeed import Calibration
from inputs import as_dataset
from tracing import Tracer

#: ``fuse-serve``'s scheduling defaults; its GEMM block width is 32
SHIPPED = ServeConfig(max_batch_size=32, max_delay_ms=5.0, max_queue_depth=256)
MAX_IN_FLIGHT = 32

#: traced passes kept per run (spans stay in memory until the run ends)
TRACED_PASSES = 4
MIN_PASSES = 3


def socket_host(channel, estimator) -> None:
    server = ProcessShardedPoseServer(estimator, num_shards=1, config=SHIPPED)

    async def serve() -> None:
        frontend = PoseFrontend(
            server,
            host="127.0.0.1",
            port=0,
            max_in_flight=MAX_IN_FLIGHT,
            protocol=2,
            allow_remote_shutdown=True,
        )
        await frontend.start()
        host, port = frontend.address[:2]
        channel.send(("ready", {"host": host, "port": port}))
        await frontend.serve_until_closed()

    try:
        asyncio.run(serve())
    finally:
        server.close()


def _wait_for_go(channel) -> bool:
    channel.send(("ready", None))
    return channel.recv() == "go"


def _finish(channel, result) -> None:
    channel.send(("result", result))
    channel.recv()


def _trace_server(tracer: Tracer, server: PoseServer) -> List:
    """Wrap one server's layer entry points; returns the undo functions."""
    return [
        tracer.wrap(server, "enqueue", "batcher"),
        tracer.wrap(server, "flush", "batcher"),
        tracer.wrap(UserSession, "observe", "session"),
        tracer.wrap(FeatureMapBuilder, "build_batch", "features"),
        tracer.wrap(server.kernel, "predict", "kernel"),
        tracer.wrap(server.kernel, "predict_lowrank", "kernel"),
        tracer.wrap(server.registry, "gather", "adapters"),
        tracer.wrap(server.registry, "adapt_many", "adapters"),
    ]


def _passes(seconds: float, trace: bool):
    """Yield ``(index, traced)`` until ``seconds`` are spent (at least
    MIN_PASSES, and with tracing at least one traced and one untraced)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < MIN_PASSES:
        traced = trace and index % 2 == 1 and index // 2 < TRACED_PASSES
        yield index, traced
        index += 1


def _batch_counters(snapshot: Dict[str, float]) -> Dict[str, float]:
    return {
        "flushes": snapshot["flushes"],
        "batched_frames": snapshot["mean_batch_size"] * snapshot["flushes"],
        "latency_p50_ms": snapshot["latency_p50_ms"],
        "latency_p95_ms": snapshot["latency_p95_ms"],
    }


def _measure(channel, seconds: float, trace: bool, run_pass, calibration: Calibration) -> None:
    """Repeat ``run_pass(index, tracer or None) -> (record, predictions)``
    for ``seconds``; time the host-speed calibration between passes (a pass
    that does not pace itself gets the mean of the readings before and after
    it) and check that every pass answers with the first pass's bits."""
    tracer = Tracer()
    records = []
    reference: Optional[Dict[str, np.ndarray]] = None
    identical = True
    pace = calibration.measure()
    for index, traced in _passes(seconds, trace):
        record, predictions = run_pass(index, tracer if traced else None)
        # Servers hold reference cycles; collect each pass's now, outside
        # the timed region, so peak memory does not depend on GC timing.
        gc.collect()
        after = calibration.measure()
        record["traced"] = traced
        record.setdefault("pace_s", (pace + after) / 2)
        pace = after
        records.append(record)
        if reference is None:
            reference = predictions
        else:
            identical &= all(np.array_equal(reference[u], predictions[u]) for u in reference)
    _finish(
        channel,
        {
            "passes": records,
            "predictions": reference,
            "passes_identical": identical,
            "spans": tracer.spans,
        },
    )


def replay_job(channel, estimator, streams, seconds: float, trace: bool) -> None:
    """``inproc_replay``: closed-loop, full-block replay through a PoseServer."""
    frames = sum(len(stream) for stream in streams.values())
    replay_users(PoseServer(estimator, SHIPPED), streams)  # warm-up
    if not _wait_for_go(channel):
        return

    def run_pass(index: int, tracer: Optional[Tracer]):
        server = PoseServer(estimator, SHIPPED)
        undo = _trace_server(tracer, server) if tracer is not None else []
        start = time.perf_counter()
        if tracer is not None:
            result = tracer.call("driver.replay_users", "driver", replay_users, server, streams)
        else:
            result = replay_users(server, streams)
        wall = time.perf_counter() - start
        for restore in undo:
            restore()
        record = {"frames": frames, "fps": frames / wall, **_batch_counters(server.metrics_snapshot())}
        return record, result.predictions

    _measure(channel, seconds, trace, run_pass, Calibration())


def onboard_pass(
    estimator_bytes: bytes,
    cohorts: List[Dict[str, tuple]],
    ticks: int,
    hot_capacity: int,
    spill_dir: Path,
    calibration: Calibration,
    tracer: Optional[Tracer] = None,
) -> tuple:
    """Onboard cohorts one after another on a fresh server; after each
    cohort, every user onboarded so far streams ``ticks`` frames.

    A fresh unpickled estimator per pass keeps the feature cache of one pass
    from serving the next pass's calibration sets.  Each onboarding and
    serving phase is paced by the calibration read just before and after it
    (``adapt_pace_s`` / ``pace_s``: the pace at which the phases' total
    restates exactly).  Returns the pass's record and its predictions.
    """
    estimator = pickle.loads(estimator_bytes)
    policy = AdapterPolicy(
        scope="lora",
        rank=4,
        learning_rate=0.1,
        hot_capacity=hot_capacity,
        spill_dir=str(spill_dir),
    )
    server = PoseServer(estimator, ServeConfig(max_batch_size=32, adapter=policy))
    undo = _trace_server(tracer, server) if tracer is not None else []
    handles: Dict[str, list] = {}
    streams: Dict[str, list] = {}
    # per phase: seconds, and seconds divided by the pace they ran at
    spent = {"adapt": [0.0, 0.0], "serve": [0.0, 0.0]}
    pace = [calibration.measure()]

    def timed(phase: str, work) -> None:
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
        after = calibration.measure()
        spent[phase][0] += elapsed
        spent[phase][1] += elapsed / ((pace[0] + after) / 2)
        pace[0] = after

    def serve_round() -> None:
        for _ in range(ticks):
            for user, stream in streams.items():
                frame = stream[len(handles[user])]
                handles[user].append(server.enqueue(user, frame.cloud))
        while server.flush():
            pass

    for cohort in cohorts:
        timed(
            "adapt",
            lambda: server.adapt_users(
                {user: as_dataset(frames) for user, (frames, _) in cohort.items()}
            ),
        )
        for user, (_, serving) in cohort.items():
            handles[user], streams[user] = [], serving
        if ticks:
            timed("serve", serve_round)
    for restore in undo:
        restore()
    predictions = {
        user: np.stack([handle.result(flush=False) for handle in user_handles])
        for user, user_handles in handles.items()
        if user_handles
    }
    snapshot = server.metrics_snapshot()
    record = {
        "users": len(handles),
        "adapt_s": spent["adapt"][0],
        "adapt_pace_s": spent["adapt"][0] / spent["adapt"][1],
        "serve_s": spent["serve"][0],
        "frames": sum(len(user_handles) for user_handles in handles.values()),
        "snapshot": snapshot,
        **_batch_counters(snapshot),
    }
    if ticks:
        record["pace_s"] = spent["serve"][0] / spent["serve"][1]
    return record, predictions


def onboard_job(
    channel,
    estimator_bytes: bytes,
    cohorts,
    ticks: int,
    hot_capacity: int,
    spill_root: str,
    seconds: float,
    trace: bool,
) -> None:
    """``onboard_and_serve``: onboarding cohorts while earlier users stream."""
    root = Path(spill_root)
    calibration = Calibration()
    onboard_pass(estimator_bytes, cohorts[:1], ticks, hot_capacity, root / "warmup", calibration)
    if not _wait_for_go(channel):
        return

    def run_pass(index: int, tracer: Optional[Tracer]):
        return onboard_pass(
            estimator_bytes, cohorts, ticks, hot_capacity, root / f"pass{index}", calibration, tracer
        )

    _measure(channel, seconds, trace, run_pass, calibration)


def onboard_probe(
    estimator, cohort: Dict[str, tuple], spill_root: Path, repeats: int, tracer=None
) -> List[dict]:
    """Onboard one cohort on a fresh server ``repeats`` times (the
    workloads that serve no adapted users report this)."""
    estimator_bytes = pickle.dumps(estimator)
    calibration = Calibration()
    return [
        onboard_pass(
            estimator_bytes,
            [cohort],
            0,
            len(cohort),
            spill_root / f"probe{repeat}",
            calibration,
            tracer,
        )[0]
        for repeat in range(repeats)
    ]
