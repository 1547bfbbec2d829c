"""Live user migration: portable per-user serving state.

A user's serving state is two things: their session ring (the ``2M + 1``
frames feeding streaming fusion) and their adapted parameters (an
:class:`AdapterRegistry` entry).  Both are already portable — the ring is a
handful of point-cloud arrays, the adapter is the CRC-checked record a
spill file holds (:func:`repro.nn.serialization.record_bytes`) — so moving
a user between backends is a *state copy*, not a retrain: export on the
source, ship the dict over wire protocol v2 (arrays travel tagged, the
adapter record as a ``uint8`` byte array, which JSON carries), import on
the destination, where the record's CRC is checked before anything is
installed.  Because serving is batch-invariant and the
restored ring is bitwise equal to the source's, the destination's next
prediction for the user is bitwise identical to what the source would have
produced — the property ``tests/serve/test_migration.py`` and the router
end-to-end tests pin.

Two layers live here:

* the **user-state schema** (:func:`export_user_state` /
  :func:`import_user_state` / :func:`validate_user_state`) shared by
  :meth:`PoseServer.export_user`, the shard-worker commands and the
  front-end's ``export_user``/``import_user`` messages;
* :class:`SessionMirror`, the router's bounded copy of recent frames per
  user — when a backend dies *unannounced* there is nothing left to export,
  so the router restores the user's session ring on the failover target
  from its mirror (adapted parameters cannot be recovered this way; see
  ``docs/cluster.md`` for the failover semantics).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Hashable, List, Optional, Tuple

import numpy as np

from ..radar.pointcloud import PointCloudFrame

__all__ = [
    "MigrationError",
    "SessionMirror",
    "USER_STATE_VERSION",
    "export_user_state",
    "import_user_state",
    "validate_user_state",
]

#: schema version of the user-state dict (bumped on incompatible change;
#: version 2 carries the adapter as a record instead of an ``.npz`` archive)
USER_STATE_VERSION = 2

_SESSION_KEYS = ("frames_seen", "points", "timestamps", "frame_indices")


class MigrationError(RuntimeError):
    """A user-state transfer was malformed or incompatible."""


# ----------------------------------------------------------------------
# User-state schema
# ----------------------------------------------------------------------
def validate_user_state(state) -> dict:
    """Check a user-state dict's schema; returns it, raises :class:`MigrationError`.

    The state crosses both the worker-process pickle boundary and the wire
    (where a hostile peer may send anything), so the schema is validated on
    every import, not trusted.
    """
    if not isinstance(state, dict):
        raise MigrationError(f"user state must be a dict, got {type(state).__name__}")
    version = state.get("version")
    if version != USER_STATE_VERSION:
        raise MigrationError(f"unsupported user-state version {version!r}")
    user = state.get("user")
    if isinstance(user, bool) or not isinstance(user, (str, int)):
        raise MigrationError("user state requires a str/int 'user' id")
    session = state.get("session")
    if session is not None:
        if not isinstance(session, dict):
            raise MigrationError("'session' must be a dict or None")
        missing = [key for key in _SESSION_KEYS if key not in session]
        if missing:
            raise MigrationError(f"session state is missing keys {missing}")
        points = session["points"]
        lengths = {len(points), len(session["timestamps"]), len(session["frame_indices"])}
        if len(lengths) != 1:
            raise MigrationError("session frame lists disagree in length")
        if int(session["frames_seen"]) < len(points):
            raise MigrationError("frames_seen cannot be below the ring length")
    adapter = state.get("adapter")
    if adapter is not None:
        record = np.asarray(adapter)
        if record.dtype != np.uint8 or record.ndim != 1:
            raise MigrationError("'adapter' must be a 1-d uint8 byte array or None")
    if session is None and adapter is None:
        raise MigrationError("user state carries neither session nor adapter")
    return state


def export_user_state(server, user_id: Hashable, forget: bool = False) -> Optional[dict]:
    """Export one user's session ring + adapter record from a :class:`PoseServer`.

    The server's pending micro-batch is flushed first, so every in-flight
    frame of the user resolves *before* the snapshot — and the socket
    front-end runs an export as a round of its own in the user's shard
    queue, after every frame that arrived before it — so this is the drain
    step of a live migration.  Returns ``None`` for a user with no state; with
    ``forget=True`` the user is dropped from the source after the snapshot
    (the atomic move used on planned topology changes).
    """
    server.flush()
    session = server.sessions.get(user_id)
    record = server.registry.export_user_bytes(user_id)
    if session is None and record is None:
        return None
    state: dict = {
        "version": USER_STATE_VERSION,
        "user": user_id,
        "session": None,
        "adapter": None,
    }
    if session is not None:
        history = session.history
        state["session"] = {
            "frames_seen": int(session.frames_seen),
            "num_context_frames": int(session.num_context_frames),
            "points": [np.asarray(frame.points, dtype=float) for frame in history],
            "timestamps": [float(frame.timestamp) for frame in history],
            "frame_indices": [int(frame.frame_index) for frame in history],
        }
    if record is not None:
        state["adapter"] = np.frombuffer(record, dtype=np.uint8)
    if forget:
        server.forget_user(user_id)
    return state


def import_user_state(server, state) -> Hashable:
    """Install an exported user state into a :class:`PoseServer`; returns the id.

    The session ring is restored bitwise (the destination keeps the newest
    ``2M + 1`` frames — exactly what its own deque would retain);
    the adapter record goes through the registry's CRC and schema checks,
    so damaged bytes or a scope/rank mismatch between source and
    destination policies raise readably instead of corrupting the gather
    path; either leaves the destination unchanged.  When the state carries
    a ``num_context_frames`` that disagrees with the destination estimator,
    the import refuses: fusion windows would differ and predictions could
    never re-pin.
    """
    state = validate_user_state(state)
    user_id = state["user"]
    session_state = state.get("session")
    frames: List[PointCloudFrame] = []
    if session_state is not None:
        expected_m = session_state.get("num_context_frames")
        if (
            expected_m is not None
            and int(expected_m) != server.sessions.num_context_frames
        ):
            raise MigrationError(
                f"session was recorded with num_context_frames={expected_m}, "
                f"destination serves {server.sessions.num_context_frames}"
            )
        frames = [
            PointCloudFrame(
                np.array(points, dtype=float),
                timestamp=float(timestamp),
                frame_index=int(frame_index),
            )
            for points, timestamp, frame_index in zip(
                session_state["points"],
                session_state["timestamps"],
                session_state["frame_indices"],
            )
        ]
    # The adapter record is checked before any session changes, so damaged
    # bytes leave the destination as it was.
    adapter = state.get("adapter")
    if adapter is not None:
        record = np.ascontiguousarray(np.asarray(adapter, dtype=np.uint8))
        server.registry.import_user_bytes(user_id, record.tobytes())
    if session_state is not None:
        session = server.sessions.get_or_create(user_id)
        if len(frames) > session.ring_capacity:
            frames = frames[-session.ring_capacity :]
        session.restore(frames, int(session_state["frames_seen"]))
    return user_id


# ----------------------------------------------------------------------
# Router-side session mirror (failover restore)
# ----------------------------------------------------------------------
class SessionMirror:
    """Bounded per-user copy of recently routed frames.

    The router appends every frame it forwards, in forwarding order, so when
    a backend dies without warning the mirror still holds what the dead
    backend's session rings held (provided ``capacity`` is at least the
    backends' ring capacity) and the failover target can be seeded with a
    bitwise-identical ring.  Users are LRU-bounded like the backends' own
    session managers.
    """

    def __init__(self, capacity: int = 64, max_users: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_users < 1:
            raise ValueError("max_users must be >= 1")
        self.capacity = capacity
        self.max_users = max_users
        self._users: "OrderedDict[Hashable, Tuple[Deque, List[int]]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._users)

    def __contains__(self, user_id: Hashable) -> bool:
        return user_id in self._users

    def observe(
        self, user_id: Hashable, points, timestamp: float, frame_index: int
    ) -> None:
        """Record one forwarded frame (a copy — wire buffers are reused)."""
        entry = self._users.get(user_id)
        if entry is None:
            entry = (deque(maxlen=self.capacity), [0])
            self._users[user_id] = entry
        ring, seen = entry
        ring.append(
            (np.array(points, dtype=float), float(timestamp), int(frame_index))
        )
        seen[0] += 1
        self._users.move_to_end(user_id)
        while len(self._users) > self.max_users:
            self._users.popitem(last=False)

    def user_state(self, user_id: Hashable) -> Optional[dict]:
        """The user's mirrored ring as an importable user-state dict."""
        entry = self._users.get(user_id)
        if entry is None:
            return None
        ring, seen = entry
        return {
            "version": USER_STATE_VERSION,
            "user": user_id,
            "session": {
                "frames_seen": seen[0],
                "points": [points for points, _, _ in ring],
                "timestamps": [timestamp for _, timestamp, _ in ring],
                "frame_indices": [frame_index for _, _, frame_index in ring],
            },
            "adapter": None,
        }

    def repair_state(self, user_id: Hashable) -> dict:
        """The user's mirrored ring, or an *empty* session for an unseen user.

        This is what a retry re-seeds a possibly-fed backend session from:
        a timed-out attempt may or may not have reached the backend, so the
        retry first resets the session ring to exactly the accepted frames
        the mirror holds — for a user whose very first frame timed out,
        that is an empty ring — and only then resubmits.  Without the reset
        a retried frame could enter the fusion window twice.
        """
        state = self.user_state(user_id)
        if state is not None:
            return state
        return {
            "version": USER_STATE_VERSION,
            "user": user_id,
            "session": {
                "frames_seen": 0,
                "points": [],
                "timestamps": [],
                "frame_indices": [],
            },
            "adapter": None,
        }

    def forget(self, user_id: Hashable) -> None:
        self._users.pop(user_id, None)
