"""Throughput benchmark of the streaming serving subsystem.

Replays 50 simulated concurrent users from the synthetic dataset through
three serving paths:

* **naive sequential** — the honest baseline: a plain per-user, per-frame
  loop over ``estimator.predict`` with no serving machinery at all;
* **unbatched server** — the full serving stack with ``max_batch_size=1``
  (the bitwise reference path of the equivalence tests);
* **micro-batched server** — cross-user coalescing, the deployment
  configuration;
* **socket front-end** — one request in flight per user connection
  (``serving_frontend``) and the pipelined path
  (``serving_frontend_pipelined``: in-flight windows 1/8/64 against one
  strict request/reply connection), both through shard worker processes
  behind a Unix socket;
* **routed cluster** — the replay through :class:`repro.serve.PoseRouter`
  over one and two process-backed backends (``router_fan_out``): the
  routing hop's overhead versus a direct front-end connection, and the
  fan-out recovery from consistent-hash placement over two backends;
* **mixed-class scheduling** — interactive and bulk traffic classes
  sharing one server (``mixed_class_serving``): interactive
  p95 against its class budget, and the bulk throughput retained versus
  an isolated bulk-only replay (floor: >= 70%).

The acceptance bar is micro-batched serving at >= 3x the frames/sec of the
naive sequential path.  Results land in ``BENCH_serve.json`` at the
repository root; the scheduled CI slow tier uploads the file and
``scripts/bench_regression.py`` fails the job if throughput drops more than
30% below the committed baseline.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from bench_io import record_section

from repro.core import FuseConfig, FusePoseEstimator
from repro.core.training import TrainingConfig
from repro.dataset.synthetic import SyntheticDatasetConfig, generate_dataset
from repro.nn.backend import active_backend_name
from repro.serve import (
    AdapterPolicy,
    AsyncPoseClient,
    PoseFrontend,
    PoseServer,
    ProcessShardedPoseServer,
    SchedulingPolicy,
    ServeConfig,
    TrafficClass,
    adaptation_split,
    replay_users,
    sequential_reference,
    user_streams_from_dataset,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

_RESULTS: dict = {}

NUM_USERS = 50
FRAMES_PER_USER = 15


def _record(section: str, payload: dict) -> None:
    record_section(BENCH_PATH, _RESULTS, section, payload)


def _serve_fixture():
    # 4 sessions x 210 frames: enough for 50 disjoint 15-frame user streams
    # (13 users share each session) plus the adaptation frames.
    config = SyntheticDatasetConfig(
        subject_ids=(1, 2),
        movement_names=("squat", "right_limb_extension"),
        seconds_per_pair=21.0,
        seed=5,
    )
    dataset = generate_dataset(config)
    estimator = FusePoseEstimator(
        FuseConfig(num_context_frames=1, training=TrainingConfig(epochs=3, batch_size=128))
    )
    estimator.fit_supervised(estimator.prepare(dataset))
    streams = user_streams_from_dataset(
        dataset, num_users=NUM_USERS, frames_per_user=FRAMES_PER_USER
    )
    return estimator, streams


class TestServeThroughput:
    def test_micro_batched_serving_speedup(self):
        """The acceptance bar: micro-batched >= 3x naive sequential serving."""
        estimator, streams = _serve_fixture()
        total = sum(len(stream) for stream in streams.values())

        # Warm caches/allocators once so every path is measured hot.
        replay_users(PoseServer(estimator, ServeConfig(max_batch_size=64)), streams)

        start = time.perf_counter()
        sequential_reference(estimator, streams)
        naive_seconds = time.perf_counter() - start

        unbatched = replay_users(
            PoseServer(estimator, ServeConfig(max_batch_size=1, gemm_block=64)), streams
        )
        batched_server = PoseServer(estimator, ServeConfig(max_batch_size=64))
        batched = replay_users(batched_server, streams)

        naive_fps = total / naive_seconds
        speedup_vs_naive = batched.frames_per_second / naive_fps
        metrics = batched.metrics
        _record(
            "base_model_serving",
            {
                "users": NUM_USERS,
                "frames": total,
                "naive_sequential_fps": naive_fps,
                "unbatched_server_fps": unbatched.frames_per_second,
                "batched_fps": batched.frames_per_second,
                "speedup_vs_naive": speedup_vs_naive,
                "speedup_vs_unbatched_server": (
                    batched.frames_per_second / unbatched.frames_per_second
                ),
                "mean_batch_size": metrics["mean_batch_size"],
                "latency_p50_ms": metrics["latency_p50_ms"],
                "latency_p95_ms": metrics["latency_p95_ms"],
            },
        )
        assert speedup_vs_naive >= 3.0, (
            f"micro-batched serving only {speedup_vs_naive:.2f}x naive sequential"
        )

    def test_adapted_serving_throughput(self):
        """Per-user-adapted traffic under both adaptation scopes.

        ``scope="last"`` (shared trunk + personal heads, the paper's cheap
        online regime) must stay within striking distance of base-model
        serving; ``scope="all"`` (fully personalised networks) is recorded to
        document its memory-bound cost per user.
        """
        estimator, streams = _serve_fixture()
        calibration, serving = adaptation_split(streams, adaptation_frames=5)
        adapted_users = list(serving)[::2]  # every other user has personal weights

        naive_base = _RESULTS.get("base_model_serving", {}).get("naive_sequential_fps")
        if naive_base is None:  # standalone -k run: measure the yardstick here
            total = sum(len(stream) for stream in serving.values())
            sequential_reference(estimator, serving)  # warm
            start = time.perf_counter()
            sequential_reference(estimator, serving)
            naive_base = total / (time.perf_counter() - start)

        for scope, min_fps_ratio in (("last", 2.0), ("all", 0.0)):
            server = PoseServer(
                estimator,
                ServeConfig(max_batch_size=64),
                policy=AdapterPolicy(scope=scope, epochs=3),
            )
            adapt_start = time.perf_counter()
            server.adapt_users(
                {user: _as_dataset(calibration[user]) for user in adapted_users}
            )
            adapt_seconds = time.perf_counter() - adapt_start

            result = replay_users(server, serving)
            metrics = result.metrics
            _record(
                f"mixed_adapted_serving_scope_{scope}",
                {
                    "cpu_count": os.cpu_count(),
                    "backend": active_backend_name(),
                    "users": NUM_USERS,
                    "adapted_users": len(adapted_users),
                    "frames": result.frames_served,
                    "grouped_adaptation_seconds": adapt_seconds,
                    "adaptation_users_per_sec": len(adapted_users) / adapt_seconds,
                    "batched_fps": result.frames_per_second,
                    "param_cache_hit_rate": metrics["param_cache_hit_rate"],
                    "mean_batch_size": metrics["mean_batch_size"],
                    "latency_p95_ms": metrics["latency_p95_ms"],
                },
            )
            assert result.frames_dropped == 0
            assert result.frames_per_second >= min_fps_ratio * naive_base, (
                f"scope={scope} adapted serving at {result.frames_per_second:.0f} fps "
                f"vs naive base {naive_base:.0f} fps"
            )


    def test_lora_adapted_serving_and_onboarding(self):
        """Low-rank per-user adaptation: serving speed and onboarding cost.

        Two sections:

        * ``lora_adapted_serving`` — the 50-user mixed replay with every
          other user carrying rank-4 low-rank factors.  The lora route runs
          the shared base through the fixed-block kernel and applies each
          frame's factors as two rank-r products, so it must stay within 2x
          of ``scope="last"`` serving (full-network personalization at
          near-last-layer speed).
        * ``adapter_onboarding`` — grouped onboarding throughput
          (users/sec) at ranks 2/4/8 against the ``scope="all"``
          baseline.  Training rank-r factors backpropagates and updates
          ``O(r * (in + out))`` values per layer instead of full tensors;
          the bar is >= 5x the full-adaptation onboarding rate.  Beside it,
          the rank-4 solo rate (users/sec of one warm ``adapt_user`` call,
          median of nine): the shared-base fold pads a lone user's frames to
          a full block, so its width trades solo cost against cohort cost.
        """
        estimator, streams = _serve_fixture()
        calibration, serving = adaptation_split(streams, adaptation_frames=5)
        adapted_users = list(serving)[::2]
        datasets = {user: _as_dataset(calibration[user]) for user in adapted_users}

        def onboard(policy):
            server = PoseServer(
                estimator, ServeConfig(max_batch_size=64), policy=policy
            )
            start = time.perf_counter()
            server.adapt_users(datasets)
            return server, time.perf_counter() - start

        # Warm the adaptation kernels once so every rank is measured hot.
        onboard(AdapterPolicy(scope="lora", rank=2, epochs=3))

        onboarding: dict = {
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
            "adapted_users": len(adapted_users),
            "calibration_frames_per_user": 5,
            "epochs": 3,
        }
        lora_servers = {}
        for rank in (2, 4, 8):
            server, seconds = onboard(AdapterPolicy(scope="lora", rank=rank, epochs=3))
            lora_servers[rank] = server
            onboarding[f"lora_rank_{rank}_onboarding_per_sec"] = (
                len(adapted_users) / seconds
            )
        solo_user = adapted_users[0]
        solo_server = PoseServer(
            estimator,
            ServeConfig(max_batch_size=64),
            policy=AdapterPolicy(scope="lora", rank=4, epochs=3),
        )
        solo_seconds = []
        for _ in range(10):  # the first call warms up; nine are timed
            start = time.perf_counter()
            solo_server.adapt_user(solo_user, datasets[solo_user])
            solo_seconds.append(time.perf_counter() - start)
        onboarding["lora_rank_4_solo_onboarding_per_sec"] = 1.0 / statistics.median(
            solo_seconds[1:]
        )
        _, all_seconds = onboard(AdapterPolicy(scope="all", epochs=3))
        onboarding["scope_all_onboarding_per_sec"] = len(adapted_users) / all_seconds
        onboarding["lora_rank_4_speedup_vs_all"] = (
            onboarding["lora_rank_4_onboarding_per_sec"]
            / onboarding["scope_all_onboarding_per_sec"]
        )
        _record("adapter_onboarding", onboarding)
        assert onboarding["lora_rank_4_speedup_vs_all"] >= 5.0, (
            f"rank-4 lora onboarding only "
            f"{onboarding['lora_rank_4_speedup_vs_all']:.1f}x scope='all'"
        )

        last_server, _ = onboard(AdapterPolicy(scope="last", epochs=3))
        last_result = replay_users(last_server, serving)
        lora_result = replay_users(lora_servers[4], serving)
        assert lora_result.frames_dropped == 0
        serving_payload = {
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
            "users": NUM_USERS,
            "adapted_users": len(adapted_users),
            "rank": 4,
            "frames": lora_result.frames_served,
            "batched_fps": lora_result.frames_per_second,
            "scope_last_fps": last_result.frames_per_second,
            # Named without fps/throughput so the regression gate's
            # throughput-key regex does not trend a same-run ratio.
            "serving_ratio_vs_scope_last": (
                lora_result.frames_per_second / last_result.frames_per_second
            ),
            "latency_p95_ms": lora_result.metrics["latency_p95_ms"],
            "mean_batch_size": lora_result.metrics["mean_batch_size"],
        }
        _record("lora_adapted_serving", serving_payload)
        assert serving_payload["serving_ratio_vs_scope_last"] >= 0.5, (
            f"rank-4 lora serving at {lora_result.frames_per_second:.0f} fps is below "
            f"half of scope='last' ({last_result.frames_per_second:.0f} fps)"
        )


class TestServingFrontend:
    def test_process_shard_scaling_and_socket_throughput(self):
        """Shard-process scaling plus the socket front-end, end to end.

        Two measurements land in the ``serving_frontend`` section:

        * **process replay** — the 50-user replay through a
          :class:`ProcessShardedPoseServer` at 1/2/4 shard processes.  The
          parent replays single-threaded with one transport round-trip per
          frame, so on a single-core container this documents the IPC
          overhead; on a multi-core host the per-shard flushes overlap and
          the fps climbs with the shard count.
        * **socket submits** — every user drives its own
          :class:`AsyncPoseClient` connection into a
          :class:`PoseFrontend` over a Unix socket concurrently, the
          deployment shape (`fuse-serve`): shard processes genuinely work
          in parallel when the host has the cores.
        """
        import asyncio
        import tempfile
        from pathlib import Path as _Path

        estimator, streams = _serve_fixture()
        total = sum(len(stream) for stream in streams.values())
        config = ServeConfig(max_batch_size=64)
        payload: dict = {
            "users": NUM_USERS,
            "frames": total,
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
        }

        for shards in (1, 2, 4):
            with ProcessShardedPoseServer(
                estimator, num_shards=shards, config=config
            ) as server:
                result = replay_users(server, streams)
                assert result.frames_dropped == 0
                assert result.frames_served == total
                payload[f"process_shards_{shards}_fps"] = result.frames_per_second

        async def socket_run() -> float:
            socket_path = str(_Path(tempfile.mkdtemp(prefix="fuse-bench-")) / "fuse.sock")
            with ProcessShardedPoseServer(estimator, num_shards=2, config=config) as server:
                frontend = PoseFrontend(server, unix_path=socket_path)
                await frontend.start()
                try:

                    async def stream_user(user, frames):
                        async with AsyncPoseClient() as client:
                            await client.connect_unix(socket_path)
                            for sample in frames:
                                await client.submit(user, sample.cloud)

                    start = time.perf_counter()
                    await asyncio.gather(
                        *(stream_user(user, frames) for user, frames in streams.items())
                    )
                    return total / (time.perf_counter() - start)
                finally:
                    await frontend.stop()

        payload["socket_submit_fps"] = asyncio.run(socket_run())
        _record("serving_frontend", payload)
        assert payload["socket_submit_fps"] > 0

    def test_pipelined_and_batched_socket_throughput(self):
        """Protocol v2 over the same deployment shape: close the socket gap.

        Four measurements land in ``serving_frontend_pipelined``, all
        through a 2-shard-process backend over a Unix socket:

        * **strict_fps** — one connection, one frame in flight, every
          user's frames in turn: each round trip carries a batch of one,
          the per-frame request/reply cost the pipelined paths amortize;
        * **in_flight_{1,8,64}_fps** — every user pipelines its own
          connection with the given in-flight window
          (:meth:`AsyncPoseClient.submit_many`).  The front-end
          group-commits whatever is in flight per shard, so even window 1
          batches across the 50 concurrent users.

        The acceptance bar: 64 frames in flight per user must reach >= 5x
        the strict request/reply throughput on the same host.
        """
        import asyncio
        import tempfile
        from pathlib import Path as _Path

        estimator, streams = _serve_fixture()
        total = sum(len(stream) for stream in streams.values())
        config = ServeConfig(max_batch_size=64)
        payload: dict = {
            "users": NUM_USERS,
            "frames": total,
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
        }

        async def run() -> None:
            socket_path = str(
                _Path(tempfile.mkdtemp(prefix="fuse-bench-")) / "fuse.sock"
            )
            with ProcessShardedPoseServer(estimator, num_shards=2, config=config) as server:
                frontend = PoseFrontend(server, unix_path=socket_path, max_in_flight=64)
                await frontend.start()
                try:

                    async def stream_user(user, frames, window):
                        async with AsyncPoseClient() as client:
                            await client.connect_unix(socket_path)
                            await client.submit_many(
                                user,
                                [sample.cloud for sample in frames],
                                max_in_flight=window,
                            )

                    for window in (1, 8, 64):
                        start = time.perf_counter()
                        await asyncio.gather(
                            *(
                                stream_user(user, frames, window)
                                for user, frames in streams.items()
                            )
                        )
                        payload[f"in_flight_{window}_fps"] = total / (
                            time.perf_counter() - start
                        )

                    # Strict: fresh user ids (the sessions above moved on),
                    # the same frames, one request on the wire at a time.
                    async with AsyncPoseClient() as client:
                        await client.connect_unix(socket_path)
                        ticks = max(len(stream) for stream in streams.values())
                        start = time.perf_counter()
                        for tick in range(ticks):
                            for user, stream in streams.items():
                                if tick < len(stream):
                                    await client.submit(f"strict-{user}", stream[tick].cloud)
                        payload["strict_fps"] = total / (time.perf_counter() - start)
                finally:
                    await frontend.stop()

        asyncio.run(run())
        payload["pipelining_speedup_64_vs_1"] = (
            payload["in_flight_64_fps"] / payload["in_flight_1_fps"]
        )
        payload["in_flight_64_speedup_vs_strict"] = (
            payload["in_flight_64_fps"] / payload["strict_fps"]
        )
        _record("serving_frontend_pipelined", payload)
        assert payload["in_flight_64_speedup_vs_strict"] >= 5.0, (
            f"64 frames in flight only {payload['in_flight_64_speedup_vs_strict']:.1f}x "
            "the strict request/reply socket path"
        )


def _as_dataset(frames):
    from repro.dataset.sample import PoseDataset

    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


class TestRouterFanOut:
    def test_routed_cluster_throughput(self):
        """The cluster tier: the 50-user replay through ``PoseRouter``.

        Three measurements land in the ``router_fan_out`` section, every
        backend a 1-shard-process server behind its own Unix socket:

        * **direct_backend_fps** — the replay straight into one backend's
          front-end (no router): the baseline the router's extra hop is
          measured against;
        * **routed_1_backend_fps** — the same replay through the router
          over that single backend: the pure routing overhead (one more
          socket hop and FIFO placement lock per frame);
        * **routed_2_backends_fps** — the router fanning the users out over
          two backends by consistent hashing: on a multi-core host the
          backends' micro-batch flushes overlap and fps recovers the hop.
        """
        import asyncio
        import tempfile
        from pathlib import Path as _Path

        from repro.serve import BackendSpec, PoseRouter

        estimator, streams = _serve_fixture()
        total = sum(len(stream) for stream in streams.values())
        config = ServeConfig(max_batch_size=64)
        payload: dict = {
            "users": NUM_USERS,
            "frames": total,
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
        }

        async def drive(path: str) -> float:
            async def stream_user(user, frames):
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path)
                    for sample in frames:
                        await client.submit(user, sample.cloud)

            start = time.perf_counter()
            await asyncio.gather(
                *(stream_user(user, frames) for user, frames in streams.items())
            )
            return total / (time.perf_counter() - start)

        async def run() -> None:
            root = _Path(tempfile.mkdtemp(prefix="fuse-bench-router-"))
            for num_backends in (1, 2):
                servers = [
                    ProcessShardedPoseServer(estimator, num_shards=1, config=config)
                    for _ in range(num_backends)
                ]
                frontends = []
                specs = []
                try:
                    for index, server in enumerate(servers):
                        path = str(root / f"fan{num_backends}-b{index}.sock")
                        frontend = PoseFrontend(server, unix_path=path)
                        await frontend.start()
                        frontends.append(frontend)
                        specs.append(BackendSpec(name=f"b{index}", unix_path=path))

                    if num_backends == 1:
                        payload["direct_backend_fps"] = await drive(specs[0].unix_path)

                    router_path = str(root / f"router-{num_backends}.sock")
                    router = PoseRouter(specs, unix_path=router_path)
                    await router.start()
                    try:
                        payload[f"routed_{num_backends}_backend{'s' if num_backends > 1 else ''}_fps"] = (
                            await drive(router_path)
                        )
                        if num_backends == 2:
                            placed = set(router._placement.values())
                            payload["backends_used"] = len(placed)
                    finally:
                        await router.stop()
                finally:
                    for frontend in frontends:
                        await frontend.stop()
                    for server in servers:
                        server.close()

        asyncio.run(run())
        payload["routing_overhead_vs_direct"] = (
            payload["direct_backend_fps"] / payload["routed_1_backend_fps"]
        )
        payload["fan_out_speedup_2_vs_1"] = (
            payload["routed_2_backends_fps"] / payload["routed_1_backend_fps"]
        )
        _record("router_fan_out", payload)
        assert payload["routed_2_backends_fps"] > 0


class TestFaultRecovery:
    def test_forced_failover_throughput_and_recovery(self):
        """Serving throughput through a forced backend failover.

        The 50-user replay runs through the router over two process-backed
        backends in three phases of five frames each, and the
        ``fault_recovery`` section records what the fleet actually pays for
        losing a backend mid-replay:

        * **steady_two_backend_fps** — the healthy two-backend baseline;
        * **during_failover_fps** — the phase that starts right after one
          backend's front-end is hard-stopped: the router's health monitor
          marks it down, every stranded user is re-placed onto the
          survivor, and their session rings are restored from the router's
          mirror — detection, re-placement and restore cost all land in
          this figure;
        * **after_recovery_fps** — the follow-up phase on the surviving
          backend alone: the degraded steady state the fleet runs at until
          capacity is restored;
        * **time_to_detect_s** / **time_to_recover_s** — backend stop to
          health mark-down, and backend stop to the first post-fault frame
          of every stranded user answered (the user-visible outage).

        The two timing figures are deliberately named without an
        fps/per_sec suffix so the regression gate trends only the
        throughput legs.
        """
        import asyncio
        import tempfile
        from pathlib import Path as _Path

        from repro.serve import BackendSpec, PoseRouter, RetryPolicy

        estimator, streams = _serve_fixture()
        users = sorted(streams)
        phase_frames = 5
        phase_total = len(users) * phase_frames
        payload: dict = {
            "users": len(users),
            "frames_per_phase": phase_frames,
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
        }

        async def drive(path: str, start_frame: int) -> float:
            async def stream_user(user):
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path)
                    for sample in streams[user][start_frame : start_frame + phase_frames]:
                        await client.submit(user, sample.cloud)

            start = time.perf_counter()
            await asyncio.gather(*(stream_user(user) for user in users))
            return phase_total / (time.perf_counter() - start)

        async def run() -> None:
            root = _Path(tempfile.mkdtemp(prefix="fuse-bench-failover-"))
            config = ServeConfig(max_batch_size=64)
            servers = [
                ProcessShardedPoseServer(estimator, num_shards=1, config=config)
                for _ in range(2)
            ]
            frontends = []
            try:
                specs = []
                for index, server in enumerate(servers):
                    path = str(root / f"b{index}.sock")
                    frontend = PoseFrontend(server, unix_path=path)
                    await frontend.start()
                    frontends.append(frontend)
                    specs.append(BackendSpec(name=f"b{index}", unix_path=path))
                router = PoseRouter(
                    specs,
                    unix_path=str(root / "router.sock"),
                    health_interval_s=0.05,
                    health_timeout_s=0.5,
                    health_failures=2,
                    request_timeout_s=5.0,
                    retry_policy=RetryPolicy(
                        max_attempts=3, base_delay_s=0.05, max_delay_s=0.2
                    ),
                )
                await router.start()
                try:
                    router_path = str(root / "router.sock")
                    payload["steady_two_backend_fps"] = await drive(router_path, 0)
                    stranded = [
                        user
                        for user, backend in router._placement.items()
                        if backend == "b1"
                    ]
                    assert stranded, "consistent hashing placed nothing on b1"

                    await frontends[1].stop()
                    fault_start = time.perf_counter()
                    while not router.monitor.is_down("b1"):
                        await asyncio.sleep(0.01)
                    payload["time_to_detect_s"] = time.perf_counter() - fault_start

                    payload["during_failover_fps"] = await drive(router_path, 5)
                    payload["time_to_recover_s"] = time.perf_counter() - fault_start
                    assert router.backends_lost == 1
                    assert router.users_failed_over == len(stranded)
                    assert set(router._placement.values()) == {"b0"}

                    payload["after_recovery_fps"] = await drive(router_path, 10)
                finally:
                    await router.stop()
            finally:
                import contextlib

                for frontend in frontends:
                    with contextlib.suppress(Exception):
                        await frontend.stop()
                for server in servers:
                    server.close()

        asyncio.run(run())
        _record("fault_recovery", payload)
        assert payload["after_recovery_fps"] > 0
        assert payload["time_to_recover_s"] > payload["time_to_detect_s"] > 0


class TestMixedClassServing:
    def test_mixed_class_latency_and_bulk_retention(self):
        """Interactive and bulk classes sharing one server.

        10 interactive users ride alongside 40 bulk users through the same
        micro-batcher; the ``mixed_class_serving`` section records the
        interactive p95 against its class budget and the bulk throughput
        retained versus an isolated bulk-only replay of identical cadence.
        The floor asserts bulk keeps >= 70% of its isolated throughput —
        serving the tight class must not starve the relaxed one.
        """
        estimator, streams = _serve_fixture()
        users = sorted(streams)
        interactive_users = users[:10]
        bulk_users = users[10:]
        policy = SchedulingPolicy(
            classes=(TrafficClass("interactive", 50.0), TrafficClass("bulk", 500.0)),
        )

        def replay(include_interactive: bool) -> dict:
            server = PoseServer(
                estimator,
                ServeConfig(
                    max_batch_size=64, max_queue_depth=4096, scheduling=policy
                ),
            )
            start = time.perf_counter()
            for round_index in range(FRAMES_PER_USER):
                for user in bulk_users:
                    server.enqueue(user, streams[user][round_index].cloud, priority="bulk")
                if include_interactive:
                    for user in interactive_users:
                        server.enqueue(
                            user, streams[user][round_index].cloud, priority="interactive"
                        )
                server.flush()
            while server.flush():
                pass
            elapsed = time.perf_counter() - start
            metrics = server.metrics_snapshot()
            metrics["bulk_fps"] = metrics["class_bulk_completed"] / elapsed
            return metrics

        replay(include_interactive=True)  # warm caches/allocators
        mixed = replay(include_interactive=True)
        isolated = replay(include_interactive=False)

        payload = {
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
            "interactive_users": len(interactive_users),
            "bulk_users": len(bulk_users),
            "frames_per_user": FRAMES_PER_USER,
            "interactive_budget_ms": 50.0,
            "interactive_p95_ms": mixed["class_interactive_latency_p95_ms"],
            "bulk_p95_ms": mixed["class_bulk_latency_p95_ms"],
            "mixed_bulk_fps": mixed["bulk_fps"],
            "isolated_bulk_fps": isolated["bulk_fps"],
            # Named without fps/throughput so the regression gate's
            # throughput-key regex does not trend a same-run ratio.
            "bulk_retention_ratio_mixed_vs_isolated": (
                mixed["bulk_fps"] / isolated["bulk_fps"]
            ),
            "deadline_misses": mixed["deadline_misses"],
        }
        _record("mixed_class_serving", payload)

        assert mixed["dropped"] == 0 and isolated["dropped"] == 0
        assert payload["interactive_p95_ms"] <= payload["interactive_budget_ms"], (
            f"interactive p95 {payload['interactive_p95_ms']:.1f} ms blew the "
            f"{payload['interactive_budget_ms']:.0f} ms class budget"
        )
        assert payload["bulk_retention_ratio_mixed_vs_isolated"] >= 0.70, (
            f"bulk retained only {payload['bulk_retention_ratio_mixed_vs_isolated']:.2f}x "
            "of its isolated throughput under mixed-class load"
        )
