"""Wire protocol of the socket front-end: framing, codec, message schema.

Everything that crosses a socket between a client and :class:`PoseFrontend`
goes through this module, so the protocol has exactly one definition:

* **Framing** — every message is one length-prefixed frame::

      frame  := codec(1 byte) || length(4 bytes, big-endian) || payload
      codec  := b"J" (JSON)

  A reader that sees EOF mid-frame raises :class:`TruncatedFrame`; a length
  above ``max_frame_bytes`` (default 16 MiB) raises :class:`FrameTooLarge`
  *before* the payload is read, so a malicious or corrupt length prefix can
  never balloon memory.  Any other codec tag is a :class:`ProtocolError`.

* **Codec** — JSON (:func:`available_codecs`).  NumPy arrays travel as
  tagged ``{"__nd__": ...}`` objects with base64 data and come back
  C-contiguous with dtype and shape preserved.

* **Schema** — messages are flat dictionaries with a ``"type"`` field; the
  full request/response catalogue lives in ``docs/serving.md`` and is pinned
  by ``tests/serve/test_transport.py``.  :func:`validate_message` rejects
  frames without a known type before they reach the serving layer.

* **Protocol v2** — every request carries a caller-chosen ``"id"`` (an int
  or str) so one connection holds many requests in flight and replies
  correlate out of order; a request without one is answered with an
  uncorrelated ``error`` frame.  One frame-carrying request exists:
  ``submit``, answered by its ``prediction`` (or ``error``).

* **Scheduling fields** — a ``submit`` may carry ``"priority"`` (a
  traffic-class name, e.g. ``"interactive"`` / ``"bulk"``) and
  ``"deadline_ms"`` (a latency-budget override).  A shed or evicted
  request's ``error`` frame may carry ``"retry_after_ms"``, the server's
  backoff hint.  All of these are optional flat fields; absent fields keep
  the class defaults.

The module is deliberately transport-agnostic: :class:`FrameDecoder` does
incremental parsing over any byte stream, and the ``read_message`` /
``write_message`` coroutines adapt it to asyncio streams.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import struct
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "CODEC_JSON",
    "DEFAULT_MAX_FRAME_BYTES",
    "MESSAGE_TYPES",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "FrameTooLarge",
    "ProtocolError",
    "TruncatedFrame",
    "WireError",
    "available_codecs",
    "decode_array",
    "decode_payload",
    "encode_array",
    "encode_message",
    "iter_frames",
    "read_message",
    "validate_message",
    "write_message",
]

#: the wire-protocol generation every server and client speaks
PROTOCOL_VERSION = 2

CODEC_JSON = "json"

#: the frame-header tag of the JSON codec
_JSON_TAG = b"J"

_HEADER = struct.Struct(">cI")

#: default upper bound on one frame's payload (16 MiB)
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: every message type the front-end speaks, requests and responses alike
MESSAGE_TYPES = frozenset(
    {
        "hello",
        "ping",
        "pong",
        "submit",
        "prediction",
        "metrics",
        "metrics_report",
        "prometheus",
        "prometheus_report",
        "shutdown",
        "goodbye",
        "error",
        # --- cluster tier: live user migration --------------------------
        "export_user",
        "user_state",
        "import_user",
        "imported",
    }
)


class WireError(RuntimeError):
    """Base class of every protocol-level failure."""


class TruncatedFrame(WireError):
    """The stream ended (or a buffer ran out) in the middle of a frame."""


class FrameTooLarge(WireError):
    """A frame announced a payload above the configured maximum."""


class ProtocolError(WireError):
    """A structurally valid frame carried an invalid message."""


def available_codecs() -> Tuple[str, ...]:
    """The codecs this process can encode and decode."""
    return (CODEC_JSON,)


# ----------------------------------------------------------------------
# NumPy array tagging
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> dict:
    """Tag an array for transport (base64 bytes, dtype and shape)."""
    array = np.asarray(array)
    data = array.tobytes()  # always C-order, and ndim-preserving (0-d stays 0-d)
    return {
        "__nd__": True,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(data).decode("ascii"),
    }


def decode_array(tagged: dict) -> np.ndarray:
    """Rebuild an array from its tagged form.

    Every malformed input — unknown dtype, object dtype, bad base64, a
    byte count that disagrees with dtype/shape — raises
    :class:`ProtocolError`, never a bare NumPy/binascii exception, so the
    connection handler's error path sees one exception family.
    """
    try:
        dtype = np.dtype(tagged["dtype"])
        shape = tuple(int(axis) for axis in tagged["shape"])
        data = tagged["data"]
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed array object: {error}") from error
    if dtype.hasobject or dtype.itemsize == 0:
        raise ProtocolError(f"refusing non-fixed-width array dtype {dtype.str!r}")
    try:
        data = base64.b64decode(data)
        expected = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
        if len(data) != expected:
            raise ProtocolError(
                f"array payload holds {len(data)} bytes, dtype/shape require {expected}"
            )
        return np.frombuffer(data, dtype=dtype).reshape(shape)
    except ProtocolError:
        raise
    except (ValueError, TypeError, binascii.Error) as error:
        raise ProtocolError(f"malformed array payload: {error}") from error


def _tag_arrays(value):
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, dict):
        return {key: _tag_arrays(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tag_arrays(item) for item in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _untag_arrays(value):
    if isinstance(value, dict):
        if value.get("__nd__"):
            return decode_array(value)
        return {key: _untag_arrays(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_untag_arrays(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def validate_message(message: dict) -> dict:
    """Reject messages without a known ``"type"`` before they go anywhere."""
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a dict, got {type(message).__name__}")
    kind = message.get("type")
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    return message


def encode_message(
    message: dict,
    codec: str = CODEC_JSON,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one message into a complete frame (header + payload)."""
    validate_message(message)
    _check_codec(codec)
    payload = json.dumps(_tag_arrays(message)).encode()
    if len(payload) > max_frame_bytes:
        raise FrameTooLarge(
            f"encoded payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    return _HEADER.pack(_JSON_TAG, len(payload)) + payload


def decode_payload(payload: bytes, codec: str) -> dict:
    """Deserialize one frame's payload with the codec its header announced."""
    _check_codec(codec)
    try:
        raw = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable JSON payload: {error}") from error
    return validate_message(_untag_arrays(raw))


def _check_codec(codec: str) -> None:
    if codec != CODEC_JSON:
        raise ProtocolError(f"unknown codec {codec!r}")


def _codec_of(tag: bytes) -> str:
    """The codec a frame header's tag names; any other tag is refused."""
    if tag != _JSON_TAG:
        raise ProtocolError(f"unknown codec tag {tag!r} in frame header")
    return CODEC_JSON


# ----------------------------------------------------------------------
# Incremental decoding
# ----------------------------------------------------------------------
class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed chunks with :meth:`feed`; complete messages pop out in order.  The
    decoder enforces the frame limit as soon as a header is visible and
    reports a truncated stream when :meth:`close` is called mid-frame, so
    both socket servers and tests share one strict parsing path.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be >= 1")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet parsed into a complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Tuple[dict, str]]:
        """Consume a chunk; return every completed ``(message, codec)``."""
        self._buffer.extend(chunk)
        messages: List[Tuple[dict, str]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            tag, length = _HEADER.unpack_from(self._buffer)
            codec = _codec_of(tag)
            if length > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"frame announces {length} bytes, limit is {self.max_frame_bytes}"
                )
            if len(self._buffer) < _HEADER.size + length:
                return messages
            payload = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
            del self._buffer[: _HEADER.size + length]
            messages.append((decode_payload(payload, codec), codec))

    def close(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise TruncatedFrame(
                f"stream ended with {len(self._buffer)} bytes of an incomplete frame"
            )


# ----------------------------------------------------------------------
# asyncio stream adapters
# ----------------------------------------------------------------------
async def read_message(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Tuple[dict, str]]:
    """Read one framed message; ``None`` on clean EOF between frames.

    EOF inside a frame raises :class:`TruncatedFrame`; an oversized length
    prefix raises :class:`FrameTooLarge` without reading the payload.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise TruncatedFrame(
            f"stream ended {len(error.partial)} bytes into a frame header"
        ) from error
    tag, length = _HEADER.unpack(header)
    codec = _codec_of(tag)
    if length > max_frame_bytes:
        raise FrameTooLarge(f"frame announces {length} bytes, limit is {max_frame_bytes}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise TruncatedFrame(
            f"stream ended {len(error.partial)} bytes into a {length}-byte payload"
        ) from error
    return decode_payload(payload, codec), codec


async def write_message(
    writer: asyncio.StreamWriter,
    message: dict,
    codec: str = CODEC_JSON,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Frame and send one message, draining the transport buffer."""
    writer.write(encode_message(message, codec, max_frame_bytes))
    await writer.drain()


def iter_frames(
    data: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Iterable[Tuple[dict, str]]:
    """Parse a complete byte string into messages (testing convenience)."""
    decoder = FrameDecoder(max_frame_bytes)
    messages = decoder.feed(data)
    decoder.close()
    return messages
