"""Tests of per-user sessions and streaming fusion windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radar.pointcloud import PointCloudFrame
from repro.serve import SessionManager, UserSession, streaming_window

from .conftest import make_frame


def frame_with_index(index: int) -> PointCloudFrame:
    points = np.full((2, 5), float(index))
    return PointCloudFrame(points, timestamp=index * 0.1, frame_index=index)


class TestStreamingWindow:
    def test_full_history_gives_causal_clamp(self):
        history = [frame_with_index(i) for i in range(5)]
        window = streaming_window(history, m=1)
        # Offsets -1, 0, +1 around the newest frame; the future offset clamps
        # to the newest frame itself.
        assert [f.frame_index for f in window] == [3, 4, 4]

    def test_short_history_clamps_to_oldest(self):
        history = [frame_with_index(0)]
        window = streaming_window(history, m=2)
        assert [f.frame_index for f in window] == [0, 0, 0, 0, 0]

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            streaming_window([], m=1)


class TestUserSession:
    def test_observe_returns_fused_window(self):
        session = UserSession(user_id="u", num_context_frames=1)
        first = session.observe(frame_with_index(0))
        assert first.num_points == 3 * 2  # the single frame repeated 3x
        second = session.observe(frame_with_index(1))
        # Window [0, 1, 1]: 2 + 2 + 2 points, centre metadata from frame 1.
        assert second.num_points == 6
        assert second.frame_index == 1
        assert second.timestamp == pytest.approx(0.1)

    def test_fusion_disabled_passes_frames_through(self):
        session = UserSession(user_id="u", num_context_frames=0)
        frame = frame_with_index(3)
        assert session.observe(frame) is frame

    def test_ring_is_bounded(self):
        session = UserSession(user_id="u", num_context_frames=1)
        for index in range(10):
            session.observe(frame_with_index(index))
        assert len(session) == 3  # 2M + 1
        assert [f.frame_index for f in session.history] == [7, 8, 9]
        assert session.frames_seen == 10

    @pytest.mark.parametrize("m", [0, 2, 3])
    def test_ring_capacity_is_the_fusion_window(self, m):
        session = UserSession(user_id="u", num_context_frames=m)
        assert session.ring_capacity == 2 * m + 1
        for index in range(2 * m + 4):
            session.observe(frame_with_index(index))
        assert [f.frame_index for f in session.history] == list(range(3, 2 * m + 4))

    def test_negative_context_frames_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UserSession(user_id="u", num_context_frames=-1)

    def test_restore_replaces_the_ring_without_fusing(self):
        session = UserSession(user_id="u", num_context_frames=1)
        session.observe(frame_with_index(0))
        session.restore([frame_with_index(5), frame_with_index(6)], frames_seen=7)
        assert [f.frame_index for f in session.history] == [5, 6]
        assert session.frames_seen == 7
        # The next frame fuses against the restored ring: window [6, 7, 7].
        assert session.observe(frame_with_index(7)).num_points == 6
        assert [f.frame_index for f in session.history] == [5, 6, 7]

    def test_restore_refuses_more_frames_than_the_ring(self):
        session = UserSession(user_id="u", num_context_frames=1)
        with pytest.raises(ValueError, match="capacity 3"):
            session.restore([frame_with_index(i) for i in range(4)], frames_seen=4)

    def test_restore_refuses_frames_seen_below_the_ring(self):
        session = UserSession(user_id="u", num_context_frames=1)
        with pytest.raises(ValueError, match="frames_seen"):
            session.restore([frame_with_index(0), frame_with_index(1)], frames_seen=1)

    def test_matches_offline_clamp_fusion_when_window_available(self, rng):
        """The streaming window for frame k equals the offline clamp window
        of a sequence that ends at k."""
        from repro.core.fusion import FrameFusion

        frames = [make_frame(rng) for _ in range(6)]
        session = UserSession(user_id="u", num_context_frames=1)
        streamed = [session.observe(frame) for frame in frames]
        # Offline, frame k's window is [k-1, k, k+1]; streaming clamps the
        # unavailable future frame to k, exactly as the offline clamp rule
        # does for a sequence that ends at k — so streaming fusion of frame k
        # equals the offline fusion of the prefix ending at k.
        for k in range(1, 6):
            prefix_fused = FrameFusion(num_context_frames=1).fuse_sequence(frames[: k + 1])
            np.testing.assert_array_equal(streamed[k].points, prefix_fused[k].points)


class TestSessionManager:
    def test_get_or_create_reuses_sessions(self):
        manager = SessionManager(num_context_frames=1)
        session = manager.get_or_create("alice")
        assert manager.get_or_create("alice") is session
        assert len(manager) == 1

    def test_sessions_ring_the_managers_fusion_window(self):
        session = SessionManager(num_context_frames=2).get_or_create("alice")
        assert session.num_context_frames == 2
        assert session.ring_capacity == 5

    def test_lru_eviction_is_bounded_and_reported(self):
        evicted = []
        manager = SessionManager(max_sessions=2, on_evict=evicted.append)
        manager.get_or_create("a")
        manager.get_or_create("b")
        manager.get_or_create("a")  # refresh a; b is now least recent
        manager.get_or_create("c")
        assert len(manager) == 2
        assert [s.user_id for s in evicted] == ["b"]
        assert "a" in manager and "c" in manager

    def test_close(self):
        manager = SessionManager()
        manager.get_or_create("a")
        assert manager.close("a") is True
        assert manager.close("a") is False
