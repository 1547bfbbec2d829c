"""Saving and loading model state.

Models are serialized as ``.npz`` archives containing the state dict produced
by :meth:`repro.nn.layers.Module.state_dict`.  This keeps checkpoints portable
(pure NumPy, no pickled code objects) and small enough to version control.

A serving tier's per-user adapter state — rewritten and re-read at serving
rates in spill files, and moved between backends as migration bytes — is a
flat *record* instead, in one layout on disk and in memory:
:func:`record_bytes` / :func:`parse_record` build and check it in memory,
and :func:`save_record` / :func:`load_record` wrap them for files.  A
record trades ``.npz``'s compression and zip container for one CRC check
and zero-copy array views::

    magic (8 bytes) || header length (uint32 LE) || JSON header
        || payload || CRC32 (uint32 LE) of everything before it

The header holds the caller's metadata, the payload length and, per tensor,
its key, dtype, shape and offset into the payload.  The header is padded
with JSON whitespace and every tensor offset is rounded up so that each
tensor starts on a 64-byte boundary of the record.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .layers import Module

__all__ = [
    "save_state",
    "load_state",
    "save_model",
    "load_model_into",
    "record_bytes",
    "parse_record",
    "save_record",
    "load_record",
    "read_record_header",
]

PathLike = Union[str, Path]
_METADATA_KEY = "__repro_metadata__"

_RECORD_MAGIC = b"RPROREC1"
_RECORD_PREFIX = struct.Struct("<8sI")
_RECORD_CRC = struct.Struct("<I")
_RECORD_ALIGN = 64
#: decoded record headers keyed by their exact bytes; a spill record's
#: header never changes between promotions, so each is decoded once
_HEADER_MEMO: Dict[bytes, tuple] = {}
_HEADER_MEMO_SIZE = 256


def save_state(
    state: Dict[str, np.ndarray], path: PathLike, metadata: Optional[Dict] = None
) -> Path:
    """Write a state dict (plus optional JSON-serializable metadata) to disk.

    The write is atomic: the archive is assembled in a temporary sibling file
    and :func:`os.replace`-renamed onto the final path, so a crash mid-write
    leaves either the previous archive or none — never a truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # np.savez appends ".npz" when missing; normalise the final path first so
    # the temporary file and the rename target agree.
    final = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    payload = dict(state)
    if metadata is not None:
        payload[_METADATA_KEY] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        )
    tmp = final.with_name(final.name + f".tmp-{os.getpid()}")
    try:
        np.savez_compressed(tmp, **payload)
        # np.savez also suffixes the temporary name when it lacks ".npz".
        written = tmp if tmp.suffix == ".npz" else tmp.with_suffix(tmp.suffix + ".npz")
        os.replace(written, final)
    except BaseException:
        for candidate in (tmp, tmp.with_suffix(tmp.suffix + ".npz")):
            try:
                candidate.unlink()
            except OSError:
                pass
        raise
    return final


def load_state(path: PathLike) -> tuple[Dict[str, np.ndarray], Optional[Dict]]:
    """Load a state dict and its metadata from an ``.npz`` checkpoint."""
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        candidate = path.with_suffix(path.suffix + ".npz")
        if candidate.exists():
            path = candidate
    with np.load(path, allow_pickle=False) as archive:
        state = {key: archive[key] for key in archive.files if key != _METADATA_KEY}
        metadata = None
        if _METADATA_KEY in archive.files:
            metadata = json.loads(bytes(archive[_METADATA_KEY].tolist()).decode("utf-8"))
    return state, metadata


def _aligned(size: int) -> int:
    return -(-size // _RECORD_ALIGN) * _RECORD_ALIGN


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _record_parts(state: Dict[str, np.ndarray], metadata: Optional[Dict]) -> list:
    """A record's bytes as consecutive parts, CRC trailer last (no copy of
    the tensors: each payload part is a byte view of its array)."""
    arrays: List[Tuple[int, np.ndarray]] = []
    tensors = []
    size = 0
    for key, value in state.items():
        array = np.asarray(value)
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
            raise ValueError(f"tensor {key!r} has a dtype a record cannot hold: {array.dtype}")
        offset = _aligned(size)
        tensors.append(
            {"key": key, "dtype": array.dtype.str, "shape": list(array.shape), "offset": offset}
        )
        arrays.append((offset, array))
        size = offset + array.nbytes
    header = json.dumps({"metadata": metadata, "payload_bytes": size, "tensors": tensors})
    header = header.encode("utf-8")
    # JSON ignores trailing whitespace: pad so the payload starts aligned.
    header = header.ljust(_aligned(_RECORD_PREFIX.size + len(header)) - _RECORD_PREFIX.size)
    parts = [_RECORD_PREFIX.pack(_RECORD_MAGIC, len(header)), header]
    written = 0
    for offset, array in arrays:
        parts.append(bytes(offset - written))
        parts.append(array.reshape(-1).view(np.uint8))
        written = offset + array.nbytes
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_RECORD_CRC.pack(crc))
    return parts


def record_bytes(state: Dict[str, np.ndarray], metadata: Optional[Dict] = None) -> bytes:
    """A state dict (plus optional JSON-serializable metadata) as record bytes.

    The layout is the module docstring's.  Arrays are stored raw, so
    :func:`parse_record` returns them bitwise with their dtype and shape.
    """
    return b"".join(_record_parts(state, metadata))


def save_record(
    state: Dict[str, np.ndarray], path: PathLike, metadata: Optional[Dict] = None
) -> Path:
    """Write :func:`record_bytes` of a state dict to ``path``, atomically.

    The record is assembled in a temporary sibling file and
    :func:`os.replace`-renamed onto ``path``, like :func:`save_state`'s
    archive, so a crash mid-write leaves the previous record or none.
    """
    path = Path(path)
    parts = _record_parts(state, metadata)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _record_header_end(head: bytes, path) -> int:
    """Check a record's magic number; return the offset where its header ends."""
    if len(head) < _RECORD_PREFIX.size:
        raise ValueError(f"{path} is too short to be a record")
    magic, header_bytes = _RECORD_PREFIX.unpack_from(head)
    if magic != _RECORD_MAGIC:
        raise ValueError(f"{path} is not a record (bad magic number)")
    return _RECORD_PREFIX.size + header_bytes


def _parse_record_header(
    head: bytes, end: int, size: int, path
) -> Tuple[Optional[Dict], Tuple[tuple, ...]]:
    """Decode a record's header and check it against the record's length.

    ``head`` holds the record at least up to ``end``, where the header ends
    and the payload starts; ``size`` is the length of the whole record.
    Returns a fresh copy of the metadata and the tensor table as ``(key,
    dtype, shape, offset)`` rows, offsets relative to the payload.  Each
    distinct header is decoded once (memoized by its exact bytes, with the
    metadata kept as its compact JSON text, which each call decodes into
    the fresh copy); the length check runs on every call.
    """
    if len(head) < end:
        raise ValueError(f"{path} is truncated inside its header")
    header = head[_RECORD_PREFIX.size : end]
    decoded = _HEADER_MEMO.get(header)
    if decoded is None:
        metadata, tensors, payload = _decode_record_header(header, path)
        decoded = json.dumps(metadata, separators=(",", ":")), tensors, payload
        if len(_HEADER_MEMO) >= _HEADER_MEMO_SIZE:
            _HEADER_MEMO.clear()
        _HEADER_MEMO[header] = decoded
    metadata_json, tensors, payload = decoded
    expected = end + payload + _RECORD_CRC.size
    if size != expected:
        raise ValueError(f"{path} is {size} bytes long, its header describes {expected}")
    return json.loads(metadata_json), tensors


def _decode_record_header(
    header: bytes, path
) -> Tuple[Optional[Dict], Tuple[tuple, ...], int]:
    """Parse and validate a record's JSON header: metadata, tensor table, payload length."""
    try:
        decoded = json.loads(header)
        metadata = decoded["metadata"]
        payload = _count(decoded["payload_bytes"])
        tensors = []
        for entry in decoded["tensors"]:
            key, dtype = entry["key"], np.dtype(entry["dtype"])
            shape = tuple(_count(side) for side in entry["shape"])
            offset = _count(entry["offset"])
            if not isinstance(key, str) or dtype.hasobject:
                raise ValueError(f"{path} holds an unsupported tensor entry {entry!r}")
            if offset + math.prod(shape) * dtype.itemsize > payload:
                raise ValueError(f"{path}: tensor {key!r} overruns the payload")
            tensors.append((key, dtype, shape, offset))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} has a malformed record header") from exc
    if metadata is not None and not isinstance(metadata, dict):
        raise ValueError(f"{path} has a malformed record header")
    if len({row[0] for row in tensors}) != len(tensors):
        raise ValueError(f"{path} repeats a tensor key")
    return metadata, tuple(tensors), payload


def parse_record(data: bytes, source="<record>") -> tuple[Dict[str, np.ndarray], Optional[Dict]]:
    """Check record bytes and return their state dict and metadata.

    One CRC32 over everything before the trailer; each tensor is then a
    read-only :func:`numpy.frombuffer` view into ``data``, never a copy.
    Any damage — a flipped bit anywhere, a truncation, bytes of another
    kind — raises :class:`ValueError` naming ``source`` before an array is
    returned.  A header seen before is not decoded again, but the CRC and
    the check of the record's length against its header run on every call.
    """
    end = _record_header_end(data, source)
    body = len(data) - _RECORD_CRC.size
    (stored,) = _RECORD_CRC.unpack_from(data, body)
    if zlib.crc32(memoryview(data)[:body]) != stored:
        raise ValueError(f"{source} failed its CRC32 check")
    metadata, tensors = _parse_record_header(data, end, len(data), source)
    state = {
        key: np.frombuffer(
            data, dtype=dtype, count=math.prod(shape), offset=end + offset
        ).reshape(shape)
        for key, dtype, shape, offset in tensors
    }
    return state, metadata


def load_record(path: PathLike) -> tuple[Dict[str, np.ndarray], Optional[Dict]]:
    """Load a :func:`save_record` file: one read, then :func:`parse_record`."""
    return parse_record(Path(path).read_bytes(), path)


def read_record_header(path: PathLike) -> Optional[Dict]:
    """Read only the metadata of a :func:`save_record` record.

    Reads the header, not the payload.  It checks the magic number, the
    header, and that the file is exactly as long as the header says, which
    catches a torn write; the CRC needs the payload, so only
    :func:`load_record` checks it.  This is the cheap way to identify many
    records, e.g. scanning an adapter spill directory on startup.
    """
    with open(path, "rb") as handle:
        head = handle.read(_RECORD_PREFIX.size)
        end = _record_header_end(head, path)
        head += handle.read(end - len(head))
        size = os.fstat(handle.fileno()).st_size
    metadata, _ = _parse_record_header(head, end, size, path)
    return metadata


def save_model(model: Module, path: PathLike, metadata: Optional[Dict] = None) -> Path:
    """Serialize a module's parameters to ``path``."""
    return save_state(model.state_dict(), path, metadata=metadata)


def load_model_into(model: Module, path: PathLike) -> Optional[Dict]:
    """Load a checkpoint into an existing module; returns stored metadata."""
    state, metadata = load_state(path)
    model.load_state_dict(state)
    return metadata
