"""Wire-protocol tests: framing, codec, message round-trips, rejection.

Pins the protocol of ``docs/serving.md``: the message catalogue is exactly
the kept request/reply types, every type round-trips bitwise through the
JSON codec, truncated and oversized frames are rejected with the
dedicated errors, and malformed payloads never reach the serving layer.
Frames are read back by ``read_message``, the reader every server and
client runs, over an ``asyncio.StreamReader`` fed the bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.transport import (
    MESSAGE_TYPES,
    FrameTooLarge,
    ProtocolError,
    TruncatedFrame,
    available_codecs,
    decode_array,
    encode_array,
    encode_message,
)

from .conftest import read_all

CODECS = available_codecs()

#: one representative instance of every message type the protocol speaks
EXAMPLE_MESSAGES = [
    {"type": "hello", "protocol": 2, "codecs": ["json"], "shards": 4},
    {"type": "ping"},
    {"type": "pong"},
    {
        "type": "submit",
        "user": "user-007",
        "frame": {
            "points": np.arange(40.0).reshape(8, 5),
            "timestamp": 1.25,
            "frame_index": 7,
        },
    },
    {
        "type": "prediction",
        "user": "user-007",
        "joints": np.linspace(-1.0, 1.0, 57).reshape(19, 3),
        "latency_ms": 4.2,
    },
    {"type": "metrics"},
    {"type": "metrics_report", "metrics": {"completed": 80.0, "latency_p95_ms": 3.5}},
    {"type": "prometheus"},
    {"type": "prometheus_report", "text": "# HELP x y\n"},
    {"type": "shutdown"},
    {"type": "goodbye"},
    {"type": "error", "error": "QueueFull", "detail": "queue is at 256"},
    # --- live user migration ---------------------------------------------
    {"type": "export_user", "id": 41, "user": "user-007", "forget": True},
    {
        "type": "user_state",
        "id": 41,
        "user": "user-007",
        "state": {"user": "user-007", "adapter": np.arange(6, dtype=np.uint8)},
    },
    {"type": "import_user", "id": 42, "state": {"user": "user-007", "session": None}},
    {"type": "imported", "id": 42, "user": "user-007"},
]


def assert_messages_equal(actual, expected):
    assert type(expected) is not tuple  # sanity: lists come back as lists
    if isinstance(expected, dict):
        assert set(actual) == set(expected)
        for key in expected:
            assert_messages_equal(actual[key], expected[key])
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray)
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)
    elif isinstance(expected, list):
        assert list(actual) == list(expected)
    else:
        assert actual == expected


class TestRoundTrip:
    def test_catalogue_is_exactly_the_kept_message_types(self):
        """One frame-carrying request (``submit``) and its replies, the
        control and observability pairs, and the migration pairs."""
        assert MESSAGE_TYPES == {
            "hello", "ping", "pong", "submit", "prediction", "metrics",
            "metrics_report", "prometheus", "prometheus_report", "shutdown",
            "goodbye", "error", "export_user", "user_state", "import_user",
            "imported",
        }  # fmt: skip
        assert {message["type"] for message in EXAMPLE_MESSAGES} == MESSAGE_TYPES
        assert CODECS == ("json",)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize(
        "message", EXAMPLE_MESSAGES, ids=[m["type"] for m in EXAMPLE_MESSAGES]
    )
    def test_every_message_type_round_trips(self, codec, message):
        frames = read_all(encode_message(message, codec))
        assert len(frames) == 1
        decoded, seen_codec = frames[0]
        assert seen_codec == codec
        assert_messages_equal(decoded, message)

    @pytest.mark.parametrize("codec", CODECS)
    def test_back_to_back_frames_parse_in_order(self, codec):
        data = b"".join(encode_message(m, codec) for m in EXAMPLE_MESSAGES)
        frames = read_all(data)
        assert [m["type"] for m, _ in frames] == [m["type"] for m in EXAMPLE_MESSAGES]

    @pytest.mark.parametrize(
        "array",
        [
            np.zeros((0, 5)),
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.array(3.5),
            np.random.default_rng(0).normal(size=(19, 3)),
        ],
        ids=["empty", "int64", "scalar", "float-joints"],
    )
    def test_array_tagging_preserves_dtype_shape_and_bits(self, array):
        restored = decode_array(encode_array(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        np.testing.assert_array_equal(restored, array)


class TestRejection:
    def test_unknown_message_type_rejected_before_encode(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            encode_message({"type": "exploit"})
        with pytest.raises(ProtocolError):
            encode_message({"no-type": 1})

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError, match="unknown codec"):
            encode_message({"type": "ping"}, codec="cbor")

    def test_unknown_codec_tag_rejected(self):
        frame = bytearray(encode_message({"type": "ping"}))
        frame[0] = ord("Z")
        with pytest.raises(ProtocolError, match="codec tag"):
            read_all(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = encode_message({"type": "prediction", "user": 1, "joints": np.zeros((19, 3))})
        for cut in (1, 4, len(frame) // 2, len(frame) - 1):
            part = "frame header" if cut < 5 else "payload"
            with pytest.raises(TruncatedFrame, match=f"stream ended .* {part}"):
                read_all(frame[:cut])

    def test_oversized_frame_rejected_from_header_alone(self):
        frame = encode_message({"type": "ping"})
        big = frame[:1] + (2**31 - 1).to_bytes(4, "big")  # header only, huge length
        with pytest.raises(FrameTooLarge, match="announces"):
            read_all(big, max_frame_bytes=1024)

    def test_oversized_payload_rejected_at_encode_time(self):
        message = {"type": "prediction", "user": 0, "joints": np.zeros((4096, 3))}
        with pytest.raises(FrameTooLarge, match="exceeds"):
            encode_message(message, max_frame_bytes=1024)

    def test_object_dtype_array_rejected(self):
        # dtype "|O" passes np.dtype() but frombuffer would raise a bare
        # ValueError; the transport must surface it as a ProtocolError so
        # the connection handler's error path catches it.
        tagged = {"__nd__": True, "dtype": "|O", "shape": [1], "data": b"\x00" * 8}
        with pytest.raises(ProtocolError, match="non-fixed-width"):
            decode_array(tagged)

    def test_invalid_dtype_string_rejected(self):
        tagged = {"__nd__": True, "dtype": "not-a-dtype", "shape": [1], "data": b""}
        with pytest.raises(ProtocolError, match="malformed array"):
            decode_array(tagged)

    def test_invalid_base64_rejected(self):
        tagged = {"__nd__": True, "dtype": "<f8", "shape": [1], "data": "!!!not base64"}
        with pytest.raises(ProtocolError):
            decode_array(tagged)

    def test_corrupt_array_payload_rejected(self):
        tagged = encode_array(np.zeros((2, 3)))
        tagged["shape"] = [2, 4]  # claims more elements than the data holds
        with pytest.raises(ProtocolError, match="bytes"):
            decode_array(tagged)

    def test_undecodable_json_payload_rejected(self):
        good = encode_message({"type": "ping"})
        bad = good[:5] + b"\xff" * (len(good) - 5)
        with pytest.raises(ProtocolError, match="undecodable JSON"):
            read_all(bad)

