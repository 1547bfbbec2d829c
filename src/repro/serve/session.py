"""Per-user sessions: sliding frame history feeding streaming fusion.

Offline, FUSE fuses the ``2M + 1`` frames *around* each centre frame
(Eq. 3); a live stream has no future frames, so serving fuses the causal
variant: for the newest frame ``k`` the window ``k - M .. k + M`` is clamped
into the available history ``.. k`` — exactly :class:`FrameFusion`'s
``"clamp"`` boundary rule applied to a sequence that currently ends at ``k``.
Every submitted frame therefore yields one zero-added-latency prediction
whose fusion window matches the offline path wherever the offline window was
available.

:class:`UserSession` owns one user's bounded frame ring and produces the
fused cloud per submission; :class:`SessionManager` tracks many sessions with
LRU eviction so a server exposed to millions of user ids stays bounded.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence

from ..radar.pointcloud import PointCloudFrame, merge_frames

__all__ = ["UserSession", "SessionManager", "streaming_window"]


def streaming_window(history: Sequence[PointCloudFrame], m: int) -> List[PointCloudFrame]:
    """The causal fusion window around the newest frame of ``history``.

    Offsets ``-m .. +m`` relative to the newest frame are clamped into the
    retained history, so future offsets repeat the newest frame and early
    frames repeat the oldest retained one — the streaming twin of
    :meth:`repro.core.FrameFusion.fuse_sequence` with ``boundary="clamp"``.
    """
    if not history:
        raise ValueError("cannot build a fusion window from an empty history")
    last = len(history) - 1
    return [history[min(max(last + offset, 0), last)] for offset in range(-m, m + 1)]


@dataclass
class UserSession:
    """One user's streaming state: frame ring and frame counter.

    Parameters
    ----------
    user_id:
        Opaque hashable identity of the user.
    num_context_frames:
        The fusion meta-parameter ``M`` of the serving estimator.
    """

    user_id: Hashable
    num_context_frames: int = 1
    frames_seen: int = 0
    _ring: "deque[PointCloudFrame]" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_context_frames < 0:
            raise ValueError("num_context_frames must be non-negative")
        self._ring = deque(maxlen=self.ring_capacity)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def ring_capacity(self) -> int:
        """Frames of history retained: the fusion window ``2M + 1``."""
        return 2 * self.num_context_frames + 1

    @property
    def history(self) -> List[PointCloudFrame]:
        """The retained frames, oldest first."""
        return list(self._ring)

    def observe(self, frame: PointCloudFrame) -> PointCloudFrame:
        """Push one frame and return the fused cloud for its prediction.

        The fused cloud carries the submitted frame's timestamp and frame
        index (it is the centre of the streaming window).
        """
        self._ring.append(frame)
        self.frames_seen += 1
        if self.num_context_frames == 0:
            return frame
        window = streaming_window(self._ring, self.num_context_frames)
        fused = merge_frames(window)
        fused.timestamp = frame.timestamp
        fused.frame_index = frame.frame_index
        return fused

    def restore(self, frames: Sequence[PointCloudFrame], frames_seen: int) -> None:
        """Replace the ring contents without fusing (live-migration import).

        ``frames`` must fit the ring — a migration source with a larger ring
        than the destination would silently change future fusion windows, so
        that mismatch raises instead.
        """
        if len(frames) > self.ring_capacity:
            raise ValueError(
                f"cannot restore {len(frames)} frames into a ring of "
                f"capacity {self.ring_capacity}"
            )
        if frames_seen < len(frames):
            raise ValueError("frames_seen cannot be below the restored ring length")
        self._ring.clear()
        self._ring.extend(frames)
        self.frames_seen = int(frames_seen)


class SessionManager:
    """Bounded LRU registry of :class:`UserSession` objects."""

    def __init__(
        self,
        num_context_frames: int = 1,
        max_sessions: int = 1024,
        on_evict: Optional[Callable[[UserSession], None]] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.num_context_frames = num_context_frames
        self.max_sessions = max_sessions
        self._on_evict = on_evict
        self._sessions: "OrderedDict[Hashable, UserSession]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, user_id: Hashable) -> bool:
        return user_id in self._sessions

    @property
    def user_ids(self) -> List[Hashable]:
        """Tracked users, least recently active first."""
        return list(self._sessions)

    def get(self, user_id: Hashable) -> Optional[UserSession]:
        """Return the user's session without creating one (no LRU touch)."""
        return self._sessions.get(user_id)

    def get_or_create(self, user_id: Hashable) -> UserSession:
        """Return the user's session, creating (and possibly evicting) as needed."""
        session = self._sessions.get(user_id)
        if session is None:
            session = UserSession(user_id=user_id, num_context_frames=self.num_context_frames)
            self._sessions[user_id] = session
        self._sessions.move_to_end(user_id)
        while len(self._sessions) > self.max_sessions:
            _, evicted = self._sessions.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(evicted)
        return session

    def close(self, user_id: Hashable) -> bool:
        """Forget one user's session; returns whether it existed."""
        return self._sessions.pop(user_id, None) is not None
