"""Fixtures shared by the serving-subsystem tests."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core import FuseConfig, FusePoseEstimator
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.dataset.loader import ArrayDataset
from repro.dataset.synthetic import SyntheticDatasetConfig, generate_dataset
from repro.radar.pointcloud import PointCloudFrame
from repro.serve import PoseServer
from repro.serve.transport import DEFAULT_MAX_FRAME_BYTES, read_message


@pytest.fixture(scope="module")
def serve_dataset():
    """A four-session labelled dataset big enough for 50 simulated users."""
    config = SyntheticDatasetConfig(
        subject_ids=(1, 2),
        movement_names=("squat", "right_limb_extension"),
        seconds_per_pair=6.0,
        seed=5,
    )
    return generate_dataset(config)


@pytest.fixture(scope="module")
def estimator():
    """A shared (untrained — serving only reads it) FUSE estimator."""
    return FusePoseEstimator(FuseConfig(num_context_frames=1))


def make_frame(rng: np.random.Generator, count: int = 24) -> PointCloudFrame:
    """One synthetic mmWave frame with plausible channel ranges."""
    points = np.column_stack(
        [
            rng.uniform(-1.2, 1.2, count),
            rng.uniform(0.5, 4.5, count),
            rng.uniform(0.0, 2.2, count),
            rng.normal(0.0, 1.0, count),
            rng.uniform(-5.0, 35.0, count),
        ]
    )
    return PointCloudFrame(points)


def read_all(data: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> list:
    """Every ``(message, codec)`` that ``read_message`` parses from ``data``,
    read from an ``asyncio.StreamReader`` up to a clean end of stream."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while (message := await read_message(reader, max_frame_bytes)) is not None:
            messages.append(message)
        return messages

    return asyncio.run(scenario())


def tiny_model() -> PoseCNN:
    """A PoseCNN small enough that its records are a few hundred bytes."""
    config = PoseCNNConfig(
        input_height=2, input_width=2, conv_channels=(2,), hidden_units=4, output_dim=3
    )
    return PoseCNN(config, seed=0)


def tiny_dataset() -> ArrayDataset:
    """Four labelled frames shaped for :func:`tiny_model`."""
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(4, 5, 2, 2)), rng.normal(size=(4, 3)))


class HeldBackend(PoseServer):
    """A :class:`PoseServer` whose first ``enqueue_many`` call waits for
    :attr:`release`, so a test decides exactly what queues up behind the
    front-end's first group-commit round.

    ``calls`` records every ``enqueue_many`` call as ``(user, points)``
    pairs in the order the backend received them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def enqueue_many(self, items):
        self.calls.append([(item[0], np.asarray(item[1].points)) for item in items])
        if len(self.calls) == 1:
            self.entered.set()
            self.release.wait(timeout=30.0)
        return super().enqueue_many(items)


async def wait_until(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` on the event loop; fail (never hang) past ``timeout``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(f"condition not reached within {timeout:g}s")
        await asyncio.sleep(0.005)
