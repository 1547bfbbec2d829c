"""Wire protocol of the socket front-end: framing, codecs, message schema.

Everything that crosses a socket between a client and :class:`PoseFrontend`
goes through this module, so the protocol has exactly one definition:

* **Framing** — every message is one length-prefixed frame::

      frame  := codec(1 byte) || length(4 bytes, big-endian) || payload
      codec  := b"J" (JSON) | b"M" (msgpack)

  A reader that sees EOF mid-frame raises :class:`TruncatedFrame`; a length
  above ``max_frame_bytes`` (default 16 MiB) raises :class:`FrameTooLarge`
  *before* the payload is read, so a malicious or corrupt length prefix can
  never balloon memory.

* **Codecs** — JSON is always available; msgpack is used when the optional
  ``msgpack`` package is importable (:func:`available_codecs`).  Both codecs
  carry the same message dictionaries; NumPy arrays travel as tagged
  ``{"__nd__": ...}`` objects (base64 text under JSON, raw bytes under
  msgpack) and come back C-contiguous with dtype and shape preserved.

* **Schema** — messages are flat dictionaries with a ``"type"`` field; the
  full request/response catalogue lives in ``docs/serving.md`` and is pinned
  by ``tests/serve/test_transport.py``.  :func:`validate_message` rejects
  frames without a known type before they reach the serving layer.

* **Protocol v2** — every request carries a caller-chosen ``"id"`` (an int
  or str) so one connection holds many requests in flight and replies
  correlate out of order; a request without one is answered with an
  uncorrelated ``error`` frame.  The streaming
  ``enqueue``/``ticket``/``poll``/``flush`` messages expose the server's
  micro-batching API over the socket; ``submit_batch`` carries N frames in
  one frame using :class:`ArrayBlock` — a contiguous ndarray block with one
  header and one ``bytes`` region per dtype/shape group, decoded with
  buffer-protocol reads (no per-frame copy, no per-frame tag overhead).

* **Scheduling fields** — requests that enter the micro-batcher
  (``submit`` / ``enqueue`` / ``submit_batch``) may carry ``"priority"``
  (a traffic-class name, e.g. ``"interactive"`` / ``"bulk"``) and — per
  frame — ``"deadline_ms"`` (a latency-budget override).  A shed or
  evicted request's ``error`` frame may carry ``"retry_after_ms"``, the
  server's backoff hint.  ``submit_batch`` with ``"stream": true`` asks
  the server to push each frame's ``prediction`` as it resolves,
  correlated by ``"batch"`` (the request id) and ``"index"`` (the frame's
  position), before the final ``predictions`` reply.  All of these are
  optional flat fields on existing message types; absent fields keep the
  pre-scheduling behaviour, so old clients and servers interoperate.

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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

try:  # optional dependency: the wire format works without it
    import msgpack  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised on images without msgpack
    msgpack = None

__all__ = [
    "CODEC_JSON",
    "CODEC_MSGPACK",
    "DEFAULT_MAX_FRAME_BYTES",
    "MESSAGE_TYPES",
    "PROTOCOL_VERSION",
    "ArrayBlock",
    "FrameDecoder",
    "FrameTooLarge",
    "ProtocolError",
    "TruncatedFrame",
    "WireError",
    "available_codecs",
    "decode_array",
    "decode_array_block",
    "decode_payload",
    "encode_array",
    "encode_array_block",
    "encode_message",
    "iter_frames",
    "read_message",
    "validate_message",
    "write_message",
]

#: the wire-protocol generation every server and client speaks
PROTOCOL_VERSION = 2

CODEC_JSON = "json"
CODEC_MSGPACK = "msgpack"

#: codec name -> single-byte frame tag
_CODEC_TAGS: Dict[str, bytes] = {CODEC_JSON: b"J", CODEC_MSGPACK: b"M"}
_TAG_CODECS: Dict[int, str] = {tag[0]: name for name, tag in _CODEC_TAGS.items()}

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
        # --- protocol v2: streaming + batching -------------------------
        "enqueue",
        "ticket",
        "poll",
        "flush",
        "flushed",
        "submit_batch",
        "predictions",
        # --- protocol v2: cluster tier (router, migration, flow control)
        "export_user",
        "user_state",
        "import_user",
        "imported",
        "credits",
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
    """The codecs this process can encode and decode, JSON first."""
    if msgpack is not None:
        return (CODEC_JSON, CODEC_MSGPACK)
    return (CODEC_JSON,)


# ----------------------------------------------------------------------
# NumPy array tagging
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray, binary: bool) -> dict:
    """Tag an array for transport; ``binary`` keeps the bytes raw (msgpack)."""
    array = np.asarray(array)
    data = array.tobytes()  # always C-order, and ndim-preserving (0-d stays 0-d)
    return {
        "__nd__": True,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": data if binary else base64.b64encode(data).decode("ascii"),
    }


def decode_array(tagged: dict) -> np.ndarray:
    """Rebuild an array from its tagged form (either codec's).

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
        if isinstance(data, str):
            data = base64.b64decode(data.encode("ascii"))
        expected = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
        if len(data) != expected:
            raise ProtocolError(
                f"array payload holds {len(data)} bytes, dtype/shape require {expected}"
            )
        return np.frombuffer(bytes(data), dtype=dtype).reshape(shape)
    except ProtocolError:
        raise
    except (ValueError, TypeError, binascii.Error) as error:
        raise ProtocolError(f"malformed array payload: {error}") from error


# ----------------------------------------------------------------------
# Contiguous ndarray blocks (protocol v2 batched transport)
# ----------------------------------------------------------------------
class ArrayBlock:
    """An ordered list of arrays encoded as one contiguous block per group.

    Put an ``ArrayBlock`` anywhere in a message to ship N arrays — e.g. the
    point clouds of a ``submit_batch`` — without per-array tag overhead:
    the encoder groups them by ``(dtype, shape)`` and emits **one** header
    plus **one** ``bytes`` region per group, and the decoder rebuilds each
    array as a buffer-protocol *view* into its group's region
    (:func:`np.frombuffer`, no per-frame copy).  Decoded messages carry a
    plain ``list`` of read-only arrays in the original order.
    """

    __slots__ = ("arrays",)

    def __init__(self, arrays: Iterable[np.ndarray]) -> None:
        self.arrays = [np.asarray(array) for array in arrays]


def encode_array_block(arrays: Iterable[np.ndarray], binary: bool) -> dict:
    """Tag N arrays as one dtype/shape-grouped contiguous block."""
    groups: List[dict] = []
    parts: List[List[bytes]] = []
    positions: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    index: List[int] = []
    for array in arrays:
        array = np.asarray(array)
        key = (array.dtype.str, array.shape)
        slot = positions.get(key)
        if slot is None:
            slot = positions[key] = len(groups)
            groups.append({"dtype": array.dtype.str, "shape": list(array.shape), "count": 0})
            parts.append([])
        groups[slot]["count"] += 1
        parts[slot].append(array.tobytes())  # C-order, one copy per array
        index.append(slot)
    for group, chunks in zip(groups, parts):
        data = b"".join(chunks)
        group["data"] = data if binary else base64.b64encode(data).decode("ascii")
    return {"__ndblock__": True, "index": index, "groups": groups}


def decode_array_block(tagged: dict) -> List[np.ndarray]:
    """Rebuild the ordered array list from its grouped block form.

    Each returned array is a **read-only view** into its group's byte
    region (``np.frombuffer`` honours the buffer protocol, so under msgpack
    the payload bytes are never copied).  Every malformed input raises
    :class:`ProtocolError`, mirroring :func:`decode_array`.
    """
    try:
        index = [int(slot) for slot in tagged["index"]]
        raw_groups = list(tagged["groups"])
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed array block: {error}") from error
    views: List[np.ndarray] = []
    counts: List[int] = []
    for group in raw_groups:
        try:
            dtype = np.dtype(group["dtype"])
            shape = tuple(int(axis) for axis in group["shape"])
            count = int(group["count"])
            data = group["data"]
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed array block group: {error}") from error
        if dtype.hasobject or dtype.itemsize == 0:
            raise ProtocolError(f"refusing non-fixed-width array dtype {dtype.str!r}")
        if count < 0:
            raise ProtocolError("array block group has a negative count")
        if isinstance(data, str):
            try:
                data = base64.b64decode(data.encode("ascii"))
            except (ValueError, binascii.Error) as error:
                raise ProtocolError(f"malformed array block payload: {error}") from error
        per_array = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
        if len(data) != per_array * count:
            raise ProtocolError(
                f"array block group holds {len(data)} bytes, "
                f"{count} arrays of dtype/shape require {per_array * count}"
            )
        views.append(np.frombuffer(data, dtype=dtype).reshape((count, *shape)))
        counts.append(count)
    if sorted(index) != sorted(
        slot for slot, count in enumerate(counts) for _ in range(count)
    ):
        raise ProtocolError("array block index disagrees with its group counts")
    rows = [0] * len(views)
    arrays: List[np.ndarray] = []
    for slot in index:
        arrays.append(views[slot][rows[slot]])
        rows[slot] += 1
    return arrays


def _tag_arrays(value, binary: bool):
    if isinstance(value, ArrayBlock):
        return encode_array_block(value.arrays, binary)
    if isinstance(value, np.ndarray):
        return encode_array(value, binary)
    if isinstance(value, dict):
        return {key: _tag_arrays(item, binary) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tag_arrays(item, binary) for item in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _untag_arrays(value):
    if isinstance(value, dict):
        if value.get("__nd__"):
            return decode_array(value)
        if value.get("__ndblock__"):
            return decode_array_block(value)
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
    if codec == CODEC_JSON:
        payload = json.dumps(_tag_arrays(message, binary=False)).encode()
    elif codec == CODEC_MSGPACK:
        if msgpack is None:
            raise ProtocolError("msgpack codec requested but msgpack is not installed")
        payload = msgpack.packb(_tag_arrays(message, binary=True), use_bin_type=True)
    else:
        raise ProtocolError(f"unknown codec {codec!r}")
    if len(payload) > max_frame_bytes:
        raise FrameTooLarge(
            f"encoded payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    return _HEADER.pack(_CODEC_TAGS[codec], len(payload)) + payload


def decode_payload(payload: bytes, codec: str) -> dict:
    """Deserialize one frame's payload with the codec its header announced."""
    if codec == CODEC_JSON:
        try:
            raw = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"undecodable JSON payload: {error}") from error
    elif codec == CODEC_MSGPACK:
        if msgpack is None:
            raise ProtocolError("received a msgpack frame but msgpack is not installed")
        try:
            raw = msgpack.unpackb(payload, raw=False)
        except Exception as error:  # msgpack raises a family of unpack errors
            raise ProtocolError(f"undecodable msgpack payload: {error}") from error
    else:
        raise ProtocolError(f"unknown codec {codec!r}")
    return validate_message(_untag_arrays(raw))


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
            codec = _TAG_CODECS.get(tag[0])
            if codec is None:
                raise ProtocolError(f"unknown codec tag {tag!r} in frame header")
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
    codec = _TAG_CODECS.get(tag[0])
    if codec is None:
        raise ProtocolError(f"unknown codec tag {tag!r} in frame header")
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
