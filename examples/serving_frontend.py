"""Drive the ``fuse-serve`` socket front-end end to end over TCP.

This example is the full network serving story, protocol v2 edition:

1. launch ``fuse-experiment fuse-serve`` in a separate process with
   ``--port 0`` — it trains a small estimator on synthetic data, starts a
   :class:`repro.serve.ProcessShardedPoseServer` (one worker process per
   shard), binds a kernel-assigned TCP port and prints a
   ``[fuse-serve] ready tcp=HOST:PORT`` line.  Waiting for that line (and
   connecting with bounded-backoff retries) makes the hand-off race-free —
   no sleeps, no socket-file polling;
2. stream every user's frames concurrently over **one pipelined
   connection per user** (:meth:`AsyncPoseClient.submit_many` with a
   bounded in-flight window): the front-end group-commits whatever is in
   flight per shard, so the server's cross-user micro-batcher sees real
   batches;
3. fetch the aggregated serving metrics and the Prometheus exposition over
   the same socket, then ask the front-end to shut down.

Run with::

    python examples/serving_frontend.py
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time

import numpy as np

from repro.dataset import SyntheticDatasetConfig, generate_dataset
from repro.serve import AsyncPoseClient, parse_ready_line, user_streams_from_dataset

NUM_USERS = 8
FRAMES_PER_USER = 10
NUM_SHARDS = 2
MAX_IN_FLIGHT = 8


def launch_frontend() -> subprocess.Popen:
    """Start ``fuse-serve`` exactly as an operator would, as a subprocess."""
    command = [
        sys.executable,
        "-m",
        "repro.experiments.cli",
        "fuse-serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--shards",
        str(NUM_SHARDS),
        "--train-seconds",
        "6.0",
        "--train-epochs",
        "2",
        "--allow-remote-shutdown",
    ]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def wait_for_ready(process: subprocess.Popen) -> tuple[str, int]:
    """Read stdout until the ready line reports the bound host and port."""
    assert process.stdout is not None
    for line in process.stdout:
        print(line, end="")  # pass training progress through
        address = parse_ready_line(line)
        if address is not None and address.kind == "tcp":
            return address.host, address.port
    raise RuntimeError(f"fuse-serve exited early with code {process.wait()}")


async def stream_user(host: str, port: int, user_id: str, frames) -> np.ndarray:
    """One user's pipelined connection: a bounded window of in-flight frames."""
    async with AsyncPoseClient() as client:
        await client.connect_tcp(host, port, retries=5)
        predictions = await client.submit_many(
            user_id, [sample.cloud for sample in frames], max_in_flight=MAX_IN_FLIGHT
        )
    return np.stack(predictions)


async def drive(host: str, port: int) -> None:
    # The client slices its own copy of the synthetic dataset into user
    # streams — same generator, same seed, so frames are realistic mmWave
    # clouds rather than random noise.
    dataset = generate_dataset(
        SyntheticDatasetConfig(
            subject_ids=(1, 2),
            movement_names=("squat", "right_limb_extension"),
            seconds_per_pair=6.0,
            seed=5,
        )
    )
    streams = user_streams_from_dataset(
        dataset, num_users=NUM_USERS, frames_per_user=FRAMES_PER_USER
    )
    total = sum(len(frames) for frames in streams.values())

    async with AsyncPoseClient() as admin:
        await admin.connect_tcp(host, port, retries=5)
        hello = await admin.hello()
        print(
            f"Connected: protocol v{hello['protocol']}, codecs {hello['codecs']}, "
            f"{hello['shards']} shard(s), window {hello['max_in_flight']}"
        )

        start = time.perf_counter()
        results = await asyncio.gather(
            *(stream_user(host, port, user, frames) for user, frames in streams.items())
        )
        wall = time.perf_counter() - start
        print(
            f"\nPipelined: {total} frames from {len(streams)} users, one "
            f"connection each ({MAX_IN_FLIGHT} in flight) in {wall:.2f}s "
            f"({total / wall:,.0f} frames/s over the socket)"
        )

        errors = []
        for (user, frames), predicted in zip(streams.items(), results):
            labels = np.stack([sample.joints for sample in frames])
            errors.append(np.abs(predicted - labels).mean())
        print(f"Mean absolute joint error over the wire: {np.mean(errors) * 100:.2f} cm")

        metrics = await admin.metrics()
        print("\nAggregated serving metrics (via the socket):")
        for key in ("submitted", "completed", "flushes", "mean_batch_size",
                    "latency_p50_ms", "latency_p95_ms", "shards", "shard_restarts"):
            print(f"  {key:20s} {metrics[key]:10.3f}")

        prometheus = await admin.prometheus()
        print("\nPrometheus exposition (first lines):")
        print("\n".join(prometheus.splitlines()[:6]))

        await admin.shutdown()
        print("\nSent shutdown; front-end is draining.")


def main() -> None:
    process = launch_frontend()
    try:
        host, port = wait_for_ready(process)
        asyncio.run(drive(host, port))
        # Drain the pipe and wait, with a bound: a wedged server must hit
        # the terminate path in the finally block, not block forever here.
        remaining, _ = process.communicate(timeout=60)
        print(remaining, end="")
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait(timeout=10)
    print("Front-end exited cleanly." if process.returncode == 0
          else f"Front-end exit code: {process.returncode}")


if __name__ == "__main__":
    main()
