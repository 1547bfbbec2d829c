"""Layer probes: direct, repeated calls of one layer's public entry point on
the workload's own frames, timed from the benchmark.

They give the per-layer figures a workload cannot give from its own spans
because the layer runs in another process (the socket host and its shard)
or at only one batch size.  Each figure is the median of several timed
repetitions.  Kernel work is computed from the layer shapes times the block
width (padding rows included), not counted.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import nn
from repro.nn.ops import conv_output_shape
from repro.radar.pointcloud import PointCloudFrame
from repro.serve import PoseServer, ProcessShardedPoseServer, UserSession
from repro.serve.transport import available_codecs, decode_payload, encode_message

from serving import SHIPPED

REPEATS = 7


def _median_s(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def fused_frames(clouds: Sequence[PointCloudFrame]) -> List[PointCloudFrame]:
    session = UserSession("probe", num_context_frames=1)
    return [session.observe(cloud) for cloud in clouds]


def session_probe(clouds: Sequence[PointCloudFrame]) -> Dict[str, float]:
    per_stream = _median_s(lambda: fused_frames(clouds))
    return {"session.observe_us_per_frame": per_stream / len(clouds) * 1e6}


def transport_probe(clouds: Sequence[PointCloudFrame]) -> Dict[str, float]:
    """``encode_message`` / ``decode_payload`` of real ``submit`` frames, in
    the codec the client picks."""
    codec = available_codecs()[-1]
    messages = [
        {
            "type": "submit",
            "id": index,
            "user": "probe",
            "frame": {
                "points": cloud.points,
                "timestamp": cloud.timestamp,
                "frame_index": cloud.frame_index,
            },
        }
        for index, cloud in enumerate(clouds)
    ]
    framed = [encode_message(message, codec) for message in messages]
    # A frame is codec (1 byte) + big-endian length (4 bytes) + payload.
    payloads = [frame[5:] for frame in framed]
    encode = _median_s(lambda: [encode_message(message, codec) for message in messages])
    decode = _median_s(lambda: [decode_payload(payload, codec) for payload in payloads])
    return {
        "transport.encode_us_per_frame": encode / len(messages) * 1e6,
        "transport.decode_us_per_frame": decode / len(messages) * 1e6,
        "transport.bytes_per_frame": float(np.mean([len(frame) for frame in framed])),
    }


def block_flops(estimator, block: int) -> float:
    """Multiply-adds x 2 of one kernel block, from the layer shapes."""
    _, height, width = estimator.feature_builder.feature_shape
    flops = 0.0
    for module in estimator.model.modules():
        if isinstance(module, nn.Conv2d):
            out_channels, in_channels, kh, kw = module.weight.shape
            height, width = conv_output_shape(
                height, width, module.kernel_size, module.stride, module.padding
            )
            flops += 2.0 * block * height * width * in_channels * kh * kw * out_channels
        elif isinstance(module, nn.Linear):
            out_features, in_features = module.weight.shape
            flops += 2.0 * block * in_features * out_features
    return flops


def compute_probe(estimator, clouds: Sequence[PointCloudFrame]) -> Dict[str, float]:
    """Feature building and the shared kernel at batch 1 and a full block."""
    server = PoseServer(estimator, SHIPPED)
    block = server.kernel.block
    fused = fused_frames(clouds)[:block]
    if len(fused) < block:
        raise ValueError(f"compute probe needs {block} frames, got {len(fused)}")
    builder = estimator.feature_builder
    features = builder.build_batch(fused)
    build_b1 = _median_s(lambda: [builder.build_batch([cloud]) for cloud in fused])
    build_full = _median_s(lambda: builder.build_batch(fused))
    predict_b1 = _median_s(lambda: [server.kernel.predict(features[i : i + 1]) for i in range(block)])
    predict_full = _median_s(lambda: server.kernel.predict(features))
    return {
        "features.build_us_per_frame_b1": build_b1 / block * 1e6,
        "features.build_us_per_frame_bfull": build_full / block * 1e6,
        "kernel.predict_ms_b1": predict_b1 / block * 1e3,
        "kernel.predict_us_per_frame_bfull": predict_full / block * 1e6,
        "kernel.gflop_per_s": block_flops(estimator, block) / predict_full / 1e9,
    }


def ipc_probe(estimator, clouds: Sequence[PointCloudFrame]) -> Dict[str, float]:
    """``ProcessShardedPoseServer.submit`` minus in-process ``PoseServer.submit``
    on the same frames (one shard, shipped defaults)."""

    def per_call(server) -> float:
        for index, cloud in enumerate(clouds[:4]):
            server.submit(f"warm-{index}", cloud)
        samples = []
        for index, cloud in enumerate(clouds):
            start = time.perf_counter()
            server.submit("probe", cloud)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    local = per_call(PoseServer(estimator, SHIPPED))
    with ProcessShardedPoseServer(estimator, num_shards=1, config=SHIPPED) as remote:
        crossed = per_call(remote)
    return {"worker.ipc_ms_per_call": (crossed - local) * 1e3}
