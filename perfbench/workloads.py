"""The three workloads: set-up, measurement, correctness checks and metrics.

Each workload function returns an :class:`Outcome`; ``run.py`` prints it.
Set-up (recording pool, estimator training, serving process spawned to
ready, warm-up) runs ``SETUP_REPEATS`` times and ``setup_s`` is the median;
the last repetition's process is the one measured.  Timing metrics are
restated at the reference host pace (:mod:`hostspeed`); ``details["raw"]``
keeps them as measured.
"""

from __future__ import annotations

import asyncio
import pickle
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serve import PoseServer, ServeConfig, replay_users

import hostspeed
import loadgen
import probes
import serving
from inputs import FRAME_HZ, mae_cm, recording_pool, sample_streams, train_estimator
from procs import ServingProcess
from tracing import Tracer, durations_s

SETUP_REPEATS = 3
READY_TIMEOUT_S = 120.0
RESULT_TIMEOUT_S = 150.0

#: subjects the estimator was trained on, and two it never saw
SEEN_SUBJECTS = (1, 2)
NEW_SUBJECTS = (3, 4)
ALL_SUBJECTS = SEEN_SUBJECTS + NEW_SUBJECTS
RECORDING_SECONDS = 12.0

#: socket_open_loop: offered rates (frames/s), geometric, starting well
#: below today's capacity (~150 fps) and reaching over ten times it.  The
#: ratio is 5 because the shared host's speed swings by up to 2x: today's
#: code then still sustains 50 in a slow minute and misses 250 in a fast
#: one.  The latency metrics come from NOMINAL_FPS.
LADDER_FPS = (10, 50, 250, 1250, 6250)
NOMINAL_FPS = 50
#: share of the run's seconds each rung lasts: the nominal rung's latency
#: percentiles need the samples; today's code runs 10, 50 and 250 (the
#: first miss), so it measures about --seconds, and a faster server more
NOMINAL_SHARE = 0.5
RUNG_SHARE = 0.25
WARM_FRAMES = 8

#: inproc_replay: users x frames per pass (26 full 32-frame batches)
REPLAY_USERS = 64
REPLAY_FRAMES = 13
REFERENCE_USERS = 8

#: onboard_and_serve: cohorts of new users, calibration frames each, frames
#: every onboarded user streams after each cohort, and a hot tier smaller
#: than the final population so later gathers promote from the warm tier
COHORTS = 4
COHORT_USERS = 16
CALIBRATION_FRAMES = 5
TICKS_PER_COHORT = 4
HOT_CAPACITY = 24
PROBE_USERS = 32
PROBE_REPEATS = 5

#: on inproc_replay the layer spans must cover the replay's wall time
RECONCILE_TOLERANCE = 0.05
#: traced inproc_replay runs probe the wire layers with one rung this long
SOCKET_PROBE_SECONDS = 4.0


@dataclass
class Outcome:
    metrics: Dict[str, float]
    layers: Dict[str, float]
    checks: Dict[str, bool]
    attempted: int
    failed: int
    details: Dict[str, object] = field(default_factory=dict)
    trace: Optional[dict] = None


@dataclass
class Setup:
    estimator: object
    pool: list
    process: ServingProcess
    info: object
    timings: Dict[str, List[float]]
    deterministic: bool

    def median(self, key: str) -> float:
        return statistics.median(self.timings[key])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _at_pace(records: List[dict], key: str, restate: Callable[[float, float], float]) -> float:
    return _median([restate(record[key], record["pace_s"]) for record in records])


def set_up(
    seed: int,
    subjects,
    recording_s: float,
    spawn: Callable[[object, list], ServingProcess],
    warm: Callable[[list, object], None],
    stop: Callable[[ServingProcess, object], None],
) -> Setup:
    """Repeat the whole set-up; keep the last repetition's serving process."""
    calibration = hostspeed.Calibration()
    keys = ("setup_s", "raw_setup_s", "dataset.generate_s", "core.fit_s", "serve.spawn_s")
    timings: Dict[str, List[float]] = {key: [] for key in keys}
    first_params = None
    deterministic = True
    pace = calibration.measure()
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool, pool_s = recording_pool(seed, subjects, recording_s)
        trained = train_estimator()
        spawned = time.perf_counter()
        process = spawn(trained.estimator, pool)
        try:
            _, info = process.receive(READY_TIMEOUT_S)
            ready = time.perf_counter()
            warm(pool, info)
        except BaseException:
            process.stop()
            raise
        total = time.perf_counter() - start
        after = calibration.measure()
        timings["setup_s"].append(hostspeed.duration(total, (pace + after) / 2))
        pace = after
        timings["raw_setup_s"].append(total)
        timings["dataset.generate_s"].append(pool_s + trained.generate_s)
        timings["core.fit_s"].append(trained.fit_s)
        timings["serve.spawn_s"].append(ready - spawned)
        params = [param.data for param in trained.estimator.model.parameters()]
        if first_params is None:
            first_params = params
        else:
            deterministic &= all(np.array_equal(a, b) for a, b in zip(first_params, params))
        if repeat < SETUP_REPEATS - 1:
            stop(process, info)
    return Setup(trained.estimator, pool, process, info, timings, deterministic)


def _no_warm_up(pool, info) -> None:
    """In-process jobs warm up inside the child before reporting ready."""


def _stop_child(process: ServingProcess, info) -> None:
    process.stop()


def _collect(process: ServingProcess) -> tuple:
    """Start the measurement, wait for its result, read the child's memory."""
    try:
        process.send("go")
        _, result = process.receive(RESULT_TIMEOUT_S)
        rss = process.peak_rss_mb()
    finally:
        process.stop()
    return result, rss


def _onboarding_probe(setup: Setup, rng, run_dir: Path, tracer: Tracer) -> List[dict]:
    """Users/s onboarding one cohort, with the pace of each repetition."""
    users = [f"probe-{k:02d}" for k in range(PROBE_USERS)]
    streams = sample_streams(setup.pool, rng, users, CALIBRATION_FRAMES)
    cohort = {user: (frames, []) for user, frames in streams.items()}
    records = serving.onboard_probe(
        setup.estimator, cohort, run_dir / "probe", PROBE_REPEATS, tracer
    )
    return [{"users_per_s": r["users"] / r["adapt_s"], "pace_s": r["adapt_pace_s"]} for r in records]


def _pass_metrics(setup: Setup, passes: List[dict], onboarding: List[dict], rest: Dict[str, float]) -> tuple:
    """End-to-end metrics from per-pass records (keys ``fps``,
    ``latency_p50_ms``, ``latency_p95_ms``, ``pace_s``) and onboarding
    records; returns the metrics at the reference pace and as measured."""
    metrics = {
        "setup_s": setup.median("setup_s"),
        "goodput_fps": _at_pace(passes, "fps", hostspeed.rate),
        "latency_p50_ms": _at_pace(passes, "latency_p50_ms", hostspeed.duration),
        "latency_p95_ms": _at_pace(passes, "latency_p95_ms", hostspeed.duration),
        "onboard_users_per_s": _at_pace(onboarding, "users_per_s", hostspeed.rate),
        **rest,
    }
    raw = {
        "setup_s": setup.median("raw_setup_s"),
        "goodput_fps": _median([p["fps"] for p in passes]),
        "latency_p50_ms": _median([p["latency_p50_ms"] for p in passes]),
        "latency_p95_ms": _median([p["latency_p95_ms"] for p in passes]),
        "onboard_users_per_s": _median([r["users_per_s"] for r in onboarding]),
    }
    return metrics, raw


def _batcher_layers(flushes: float, frames: float, block: int) -> Dict[str, float]:
    # Every flush computes whole blocks; with max batch <= block width that
    # is exactly one block per flush.
    return {
        "batcher.mean_batch_size": frames / flushes if flushes else 0.0,
        "batcher.padding_efficiency": frames / (flushes * block) if flushes else 0.0,
    }


def _adapter_layers(snapshot: Dict[str, float]) -> Dict[str, float]:
    return {
        "adapters.tier_hit_rate": float(snapshot.get("adapter_tier_hit_rate", 0.0)),
        "adapters.param_cache_hit_rate": float(snapshot.get("param_cache_hit_rate", 0.0)),
        "adapters.warm_hits": float(snapshot.get("adapter_warm_hits", 0)),
    }


def _common_layers(
    setup: Setup, clouds, ipc: bool, adapt_spans: Tracer, adapted_users: int
) -> Dict[str, float]:
    """Layer probes and set-up figures every traced run reports."""
    layers = {}
    layers.update(probes.session_probe(clouds))
    layers.update(probes.transport_probe(clouds))
    layers.update(probes.compute_probe(setup.estimator, clouds))
    layers.update(probes.ipc_probe(setup.estimator, clouds) if ipc else {"worker.ipc_ms_per_call": 0.0})
    spent = sum(durations_s(adapt_spans.by_name("adapters.adapt_many")))
    layers["adapters.adapt_ms_per_user"] = spent / adapted_users * 1e3 if adapted_users else 0.0
    for key in ("dataset.generate_s", "core.fit_s", "serve.spawn_s"):
        layers[key] = setup.median(key)
    return layers


def _trace_record(tracer: Tracer, covered: str, uncovered: str, **extra) -> dict:
    return {
        "processes_covered": covered,
        "processes_not_covered": uncovered,
        "self_time_s": tracer.self_times(),
        **extra,
        "spans": tracer.export(),
    }


# ----------------------------------------------------------------------
# socket_open_loop
# ----------------------------------------------------------------------
def _wire_layers(rungs, before: dict, after: dict, tracer: Tracer, users) -> Dict[str, float]:
    """Generator, front-door and shard-worker figures of traced rungs:
    ``users`` picks whose client ``submit`` spans give the round trip."""
    rtt = [end - start for _, _, trace_id, _, _, start, end in tracer.spans if trace_id[0] in users]
    flushes = after["flushes"] - before["flushes"]
    frames = (
        after["mean_batch_size"] * after["flushes"] - before["mean_batch_size"] * before["flushes"]
    )
    return {
        "loadgen.lag_p95_ms": float(np.percentile([lag for r in rungs for lag in r.lag_ms], 95)),
        "frontend.rtt_p50_ms": _median(rtt) * 1e3,
        "frontend.rate_limited_retries": float(sum(r.rate_limited_retries for r in rungs)),
        "worker.restarts": float(after.get("shard_restarts", 0) - before.get("shard_restarts", 0)),
        **_batcher_layers(flushes, frames, serving.SHIPPED.block_width),
    }


def _socket_probe(setup: Setup, rng, seconds: float) -> Dict[str, float]:
    """The wire layers for a workload without a socket: one traced
    open-loop rung at NOMINAL_FPS against a freshly spawned socket host."""
    frames = int(round(seconds * FRAME_HZ))
    dues = loadgen.rung_plan(rng, NOMINAL_FPS, "probe", frames)
    streams = sample_streams(setup.pool, rng, list(dues), frames)
    tracer = Tracer()
    host = ServingProcess(serving.socket_host, estimator=setup.estimator)
    try:
        _, info = host.receive(READY_TIMEOUT_S)

        async def go():
            clients = await loadgen.connect(info["host"], info["port"], 1)
            try:
                before = await clients[0].metrics()
                rung = await loadgen.run_rung(clients, NOMINAL_FPS, streams, dues, tracer)
                after = await clients[0].metrics()
                await clients[0].shutdown()
                return before, after, rung
            finally:
                await clients[0].close()

        before, after, rung = asyncio.run(go())
    finally:
        host.stop()
    layers = _wire_layers([rung], before, after, tracer, streams)
    for key in ("batcher.mean_batch_size", "batcher.padding_efficiency"):
        del layers[key]  # the workload reports its own batcher
    return layers


async def _shutdown_host(info) -> None:
    clients = await loadgen.connect(info["host"], info["port"], 1)
    try:
        await clients[0].shutdown()
    finally:
        await clients[0].close()


def _stop_host(process: ServingProcess, info) -> None:
    try:
        asyncio.run(_shutdown_host(info))
    finally:
        process.stop()


def socket_open_loop(seed: int, seconds: float, trace: bool, run_dir: Path, nproc: int) -> Outcome:
    rng = np.random.default_rng(seed)
    connections = max(1, nproc)

    def spawn(estimator, pool):
        return ServingProcess(serving.socket_host, estimator=estimator)

    def warm(pool, info):
        frames = [sample.cloud for sample in pool[0][:WARM_FRAMES]]

        async def go():
            clients = await loadgen.connect(info["host"], info["port"], connections)
            try:
                for position, client in enumerate(clients):
                    for cloud in frames:
                        await client.submit(f"warm-{position}", cloud)
            finally:
                for client in clients:
                    await client.close()

        asyncio.run(go())

    recording_s = max(RECORDING_SECONDS, seconds * NOMINAL_SHARE + 1.0)
    setup = set_up(seed, ALL_SUBJECTS, recording_s, spawn, warm, _stop_host)
    plans = {}
    for rate in (*LADDER_FPS, "untraced"):
        nominal = rate in (NOMINAL_FPS, "untraced")
        frames = int(round(seconds * (NOMINAL_SHARE if nominal else RUNG_SHARE) * FRAME_HZ))
        dues = loadgen.rung_plan(rng, NOMINAL_FPS if nominal else rate, f"r{rate}", frames)
        plans[rate] = (dues, sample_streams(setup.pool, rng, list(dues), frames))
    tracer = Tracer() if trace else None
    info = setup.info

    async def measure():
        clients = await loadgen.connect(info["host"], info["port"], connections)
        try:
            before = await clients[0].metrics()
            untraced = None
            if trace:
                dues, streams = plans["untraced"]
                untraced = await loadgen.run_rung(clients, NOMINAL_FPS, streams, dues)
            rungs = []
            for rate in LADDER_FPS:
                dues, streams = plans[rate]
                rung = await loadgen.run_rung(clients, rate, streams, dues, tracer)
                rungs.append(rung)
                if not rung.sustained and rate >= NOMINAL_FPS:
                    break
            after = await clients[0].metrics()
            rss = setup.process.peak_rss_mb()
            await clients[0].shutdown()
            return before, after, rungs, untraced, rss
        finally:
            for client in clients:
                await client.close()

    try:
        before, after, rungs, untraced, rss = asyncio.run(measure())
    finally:
        setup.process.stop()

    # process == in-process: every user whose every frame was answered is
    # replayed through an in-process PoseServer with the same estimator.
    complete = {}
    errors = []
    for rung in rungs:
        _, streams = plans[int(rung.offered_fps)]
        for user, stream in streams.items():
            if all((user, index) in rung.replies for index in range(len(stream))):
                complete[user] = (stream, [rung.replies[(user, i)] for i in range(len(stream))])
        errors.extend(
            np.abs(joints - streams[user][index].joints).ravel()
            for (user, index), joints in rung.replies.items()
        )
    reference = replay_users(
        PoseServer(setup.estimator, serving.SHIPPED), {u: s for u, (s, _) in complete.items()}
    )
    bitwise = bool(complete) and all(
        np.array_equal(reference.predictions[user], np.stack(replies))
        for user, (_, replies) in complete.items()
    )

    sustained = [rung for rung in rungs if rung.sustained]
    top = max(sustained, key=lambda rung: rung.offered_fps) if sustained else None
    nominal = next(rung for rung in rungs if rung.offered_fps == NOMINAL_FPS)
    adapt_spans = Tracer()
    onboarding = _onboarding_probe(setup, rng, run_dir, adapt_spans)
    rest = {
        "mae_cm": float(np.concatenate(errors).mean() * 100.0) if errors else float("nan"),
        "server_rss_mb": rss,
    }
    metrics, raw = _pass_metrics(setup, [], onboarding, rest)
    # Goodput is bounded by the offered rate, and the latency spans three
    # processes that a pace read at the rung's edges does not track: both
    # are reported as measured.
    for key, value in (
        ("goodput_fps", top.achieved_fps if top else 0.0),
        ("latency_p50_ms", nominal.latency_percentile(50)),
        ("latency_p95_ms", nominal.latency_percentile(95)),
    ):
        metrics[key] = raw[key] = value
    details = {
        "connections": connections,
        "nominal_rung_seconds": seconds * NOMINAL_SHARE,
        "rung_seconds": seconds * RUNG_SHARE,
        "latency_limit_ms": loadgen.LATENCY_LIMIT_MS,
        "nominal_fps": NOMINAL_FPS,
        "nominal_latency_samples": nominal.attempted,
        "rungs": [rung.summary() for rung in rungs],
        "bitwise_users": len(complete),
        "raw": raw,
        "setup_repeats": setup.timings,
    }
    checks = {
        "socket_equals_inprocess_bitwise": bitwise,
        "setup_deterministic": setup.deterministic,
    }
    layers, record = {}, None
    if trace:
        nominal_streams = plans[NOMINAL_FPS][1]
        clouds = [frame.cloud for stream in nominal_streams.values() for frame in stream][:64]
        layers = {
            **_wire_layers(rungs, before, after, tracer, nominal_streams),
            **_common_layers(setup, clouds, True, adapt_spans, PROBE_USERS * PROBE_REPEATS),
            "adapters.gather_us_per_frame": 0.0,
            **_adapter_layers(after),
            "trace.overhead_frac": nominal.latency_percentile(50) / untraced.latency_percentile(50) - 1.0,
            "trace.reconciled_frac": 0.0,
        }
        record = _trace_record(
            tracer,
            covered="benchmark process: client submit spans (one trace id per request) and layer probes",
            uncovered="socket host (front-end) and its shard worker: their layers are measured by probes",
        )
    counted = {id(rung): rung for rung in sustained + [nominal]}.values()
    attempted = sum(rung.attempted for rung in counted)
    failed = sum(rung.failed for rung in counted)
    return Outcome(metrics, layers, checks, attempted, failed, details, record)


# ----------------------------------------------------------------------
# inproc_replay
# ----------------------------------------------------------------------
def inproc_replay(seed: int, seconds: float, trace: bool, run_dir: Path, nproc: int) -> Outcome:
    rng = np.random.default_rng(seed)
    users = [f"user-{k:03d}" for k in range(REPLAY_USERS)]

    def streams_from(pool):
        return sample_streams(pool, np.random.default_rng(seed), users, REPLAY_FRAMES)

    def spawn(estimator, pool):
        return ServingProcess(
            serving.replay_job,
            estimator=estimator,
            streams=streams_from(pool),
            seconds=seconds,
            trace=trace,
        )

    setup = set_up(seed, ALL_SUBJECTS, RECORDING_SECONDS, spawn, _no_warm_up, _stop_child)
    streams = streams_from(setup.pool)
    result, rss = _collect(setup.process)
    passes = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]

    sampled = [users[i] for i in sorted(rng.choice(len(users), REFERENCE_USERS, replace=False))]
    unbatched = replay_users(
        PoseServer(
            setup.estimator,
            ServeConfig(max_batch_size=1, gemm_block=serving.SHIPPED.block_width),
        ),
        {user: streams[user] for user in sampled},
    )
    bitwise = all(
        np.array_equal(unbatched.predictions[user], result["predictions"][user]) for user in sampled
    )
    adapt_spans = Tracer()
    onboarding = _onboarding_probe(setup, rng, run_dir, adapt_spans)
    rest = {"mae_cm": mae_cm(result["predictions"], streams), "server_rss_mb": rss}
    metrics, raw = _pass_metrics(setup, passes, onboarding, rest)
    checks = {
        "batched_equals_unbatched_bitwise": bitwise,
        "passes_identical": result["passes_identical"],
        "setup_deterministic": setup.deterministic,
    }
    details = {
        "users": REPLAY_USERS,
        "frames_per_user": REPLAY_FRAMES,
        "passes": [
            {k: p[k] for k in ("fps", "latency_p50_ms", "latency_p95_ms", "pace_s")} for p in passes
        ],
        "raw": raw,
        "setup_repeats": setup.timings,
    }
    layers, record = {}, None
    if trace:
        spans = Tracer()
        spans.spans = result["spans"]
        self_times = spans.self_times()
        wall = sum(durations_s(spans.by_name("driver.replay_users")))
        covered = sum(
            self_times.get(layer, {}).get("self_s", 0.0)
            for layer in ("session", "features", "kernel", "batcher")
        )
        reconciled = covered / wall if wall else 0.0
        checks["trace_reconciles"] = abs(1.0 - reconciled) <= RECONCILE_TOLERANCE
        clouds = [frame.cloud for stream in streams.values() for frame in stream][:64]
        layers = {
            **_socket_probe(setup, rng, SOCKET_PROBE_SECONDS),
            **_batcher_layers(
                sum(p["flushes"] for p in result["passes"]),
                sum(p["batched_frames"] for p in result["passes"]),
                serving.SHIPPED.block_width,
            ),
            **_common_layers(setup, clouds, True, adapt_spans, PROBE_USERS * PROBE_REPEATS),
            "adapters.gather_us_per_frame": 0.0,
            **_adapter_layers({}),
            "trace.overhead_frac": _at_pace(passes, "fps", hostspeed.rate)
            / _at_pace(traced, "fps", hostspeed.rate)
            - 1.0,
            "trace.reconciled_frac": reconciled,
        }
        record = _trace_record(
            spans,
            covered="serving child process: replay driver, batcher, session, features and kernel "
            "spans; benchmark process: client submit spans of the socket probe",
            uncovered="socket probe host and its shard worker (front-door and IPC figures are "
            "client-side)",
            traced_passes=len(traced),
            reconciled_frac=reconciled,
        )
    attempted = sum(p["frames"] for p in result["passes"])
    return Outcome(metrics, layers, checks, attempted, 0, details, record)


# ----------------------------------------------------------------------
# onboard_and_serve
# ----------------------------------------------------------------------
def _cohorts(pool, seed: int) -> List[Dict[str, tuple]]:
    """Per cohort: user -> (calibration frames, serving frames)."""
    rng = np.random.default_rng(seed)
    cohorts = []
    for c in range(COHORTS):
        users = [f"c{c}-u{k:02d}" for k in range(COHORT_USERS)]
        length = CALIBRATION_FRAMES + TICKS_PER_COHORT * (COHORTS - c)
        streams = sample_streams(pool, rng, users, length)
        cohorts.append(
            {user: (s[:CALIBRATION_FRAMES], s[CALIBRATION_FRAMES:]) for user, s in streams.items()}
        )
    return cohorts


def onboard_and_serve(seed: int, seconds: float, trace: bool, run_dir: Path, nproc: int) -> Outcome:
    def spawn(estimator, pool):
        return ServingProcess(
            serving.onboard_job,
            estimator_bytes=pickle.dumps(estimator),
            cohorts=_cohorts(pool, seed),
            ticks=TICKS_PER_COHORT,
            hot_capacity=HOT_CAPACITY,
            spill_root=str(run_dir / "spill"),
            seconds=seconds,
            trace=trace,
        )

    setup = set_up(seed, NEW_SUBJECTS, RECORDING_SECONDS, spawn, _no_warm_up, _stop_child)
    result, rss = _collect(setup.process)
    for p in result["passes"]:
        p["fps"] = p["frames"] / p["serve_s"]
        p["users_per_s"] = p["users"] / p["adapt_s"]
    passes = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]

    serving_streams = {
        user: frames
        for cohort in _cohorts(setup.pool, seed)
        for user, (_, frames) in cohort.items()
    }
    predictions = result["predictions"]
    served = {user: serving_streams[user][: len(predictions[user])] for user in predictions}
    base = replay_users(PoseServer(setup.estimator, serving.SHIPPED), served)
    adapted_mae = mae_cm(predictions, served)
    base_mae = mae_cm(base.predictions, served)
    rest = {"mae_cm": adapted_mae, "server_rss_mb": rss}
    onboarding = [{"users_per_s": p["users_per_s"], "pace_s": p["adapt_pace_s"]} for p in passes]
    metrics, raw = _pass_metrics(setup, passes, onboarding, rest)
    checks = {
        "adapted_mae_below_base": adapted_mae < base_mae,
        "passes_identical": result["passes_identical"],
        "setup_deterministic": setup.deterministic,
    }
    keys = ("frames", "fps", "users_per_s", "latency_p50_ms", "latency_p95_ms", "pace_s")
    details = {
        "cohorts": COHORTS,
        "cohort_users": COHORT_USERS,
        "calibration_frames": CALIBRATION_FRAMES,
        "hot_capacity": HOT_CAPACITY,
        "passes": [{k: p[k] for k in keys} for p in passes],
        "base_mae_cm": base_mae,
        "adapted_mae_cm": adapted_mae,
        "raw": raw,
        "setup_repeats": setup.timings,
    }
    layers, record = {}, None
    if trace:
        spans = Tracer()
        spans.spans = result["spans"]
        gathered = sum(durations_s(spans.by_name("adapters.gather")))
        frames = sum(p["frames"] for p in traced)
        clouds = [frame.cloud for stream in serving_streams.values() for frame in stream][:64]
        layers = {
            "loadgen.lag_p95_ms": 0.0,
            "frontend.rtt_p50_ms": 0.0,
            "frontend.rate_limited_retries": 0.0,
            "worker.restarts": 0.0,
            **_batcher_layers(
                sum(p["flushes"] for p in result["passes"]),
                sum(p["batched_frames"] for p in result["passes"]),
                serving.SHIPPED.block_width,
            ),
            **_common_layers(setup, clouds, False, spans, sum(p["users"] for p in traced)),
            "adapters.gather_us_per_frame": gathered / frames * 1e6 if frames else 0.0,
            **_adapter_layers(traced[-1]["snapshot"]),
            "trace.overhead_frac": _at_pace(passes, "fps", hostspeed.rate)
            / _at_pace(traced, "fps", hostspeed.rate)
            - 1.0,
            "trace.reconciled_frac": 0.0,
        }
        record = _trace_record(
            spans,
            covered="serving child process: batcher, session, features, kernel and adapter spans",
            uncovered="none",
        )
    attempted = sum(p["frames"] for p in result["passes"])
    return Outcome(metrics, layers, checks, attempted, 0, details, record)


WORKLOADS = {
    "socket_open_loop": socket_open_loop,
    "inproc_replay": inproc_replay,
    "onboard_and_serve": onboard_and_serve,
}
