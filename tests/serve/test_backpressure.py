"""Backpressure, queue-bound and scheduling tests of the serving layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import FakeClock, FrameDropped, PoseServer, QueueFull, ServeConfig

from .conftest import make_frame


@pytest.fixture
def clock() -> FakeClock:
    """A manually advanced clock, injected into the server under test."""
    return FakeClock()


def make_server(estimator, clock, **overrides) -> PoseServer:
    defaults = dict(max_batch_size=64, max_queue_depth=4, max_delay_ms=5.0)
    defaults.update(overrides)
    return PoseServer(estimator, ServeConfig(**defaults), clock=clock)


class TestDropOldest:
    def test_oldest_request_is_dropped_and_reported(self, estimator, clock, rng):
        server = make_server(estimator, clock)
        handles = [server.enqueue(f"u{i}", make_frame(rng)) for i in range(5)]
        assert server.pending == 4  # bounded: the 5th enqueue evicted the 1st
        assert handles[0].dropped
        server.flush()
        for handle in handles[1:]:
            assert handle.result(flush=False).shape == (19, 3)
        with pytest.raises(FrameDropped):
            handles[0].result()
        snapshot = server.metrics_snapshot()
        assert snapshot["dropped"] == 1
        assert snapshot["completed"] == 4

    def test_dropped_fraction_under_sustained_overload(self, estimator, clock, rng):
        server = make_server(estimator, clock, max_queue_depth=8)
        handles = [server.enqueue(f"u{i % 3}", make_frame(rng)) for i in range(20)]
        server.flush()
        dropped = sum(1 for h in handles if h.dropped)
        completed = sum(1 for h in handles if h.done)
        assert dropped == 12 and completed == 8


class TestReject:
    def test_reject_policy_raises_on_overflow(self, estimator, clock, rng):
        server = make_server(estimator, clock, overflow="reject", max_queue_depth=2)
        server.enqueue("a", make_frame(rng))
        server.enqueue("b", make_frame(rng))
        with pytest.raises(QueueFull):
            server.enqueue("c", make_frame(rng))
        assert server.pending == 2
        server.flush()
        assert server.pending == 0

    def test_rejected_request_leaves_no_trace_in_the_session(self, estimator, clock, rng):
        """A rejected submission must not enter the user's fusion ring, or a
        retry would fuse the frame twice."""
        server = make_server(estimator, clock, overflow="reject", max_queue_depth=2)
        frame = make_frame(rng)
        server.enqueue("victim", frame)
        server.enqueue("other", make_frame(rng))
        frames_seen = server.sessions.get_or_create("victim").frames_seen
        with pytest.raises(QueueFull):
            server.enqueue("victim", make_frame(rng))
        assert server.sessions.get_or_create("victim").frames_seen == frames_seen
        assert "victim-new" not in server.sessions


class TestScheduling:
    def test_batch_full_triggers_immediate_flush(self, estimator, clock, rng):
        server = make_server(estimator, clock, max_batch_size=3, max_queue_depth=100)
        handles = [server.enqueue(f"u{i}", make_frame(rng)) for i in range(3)]
        assert server.pending == 0  # the 3rd enqueue flushed the batch
        assert all(handle.done for handle in handles)

    def test_partial_batch_waits_for_flush_past_its_deadline(self, estimator, clock, rng):
        """A passed deadline closes no batch: a later arrival joins the same
        partial batch, one flush serves both, and only the frame served past
        its 5 ms budget counts as a miss."""
        server = make_server(estimator, clock, max_batch_size=64, max_delay_ms=5.0)
        late = server.enqueue("a", make_frame(rng))
        clock.advance(0.006)
        fresh = server.enqueue("b", make_frame(rng))
        assert server.pending == 2
        assert not late.done and not fresh.done
        assert server.flush() == 2
        assert late.done and fresh.done
        snapshot = server.metrics_snapshot()
        assert snapshot["flushes"] == 1
        assert snapshot["deadline_misses"] == 1

    def test_submit_is_synchronous_and_coalesces_pending(self, estimator, clock, rng):
        server = make_server(estimator, clock, max_batch_size=64, max_queue_depth=100)
        waiting = [server.enqueue(f"u{i}", make_frame(rng)) for i in range(5)]
        prediction = server.submit("sync-user", make_frame(rng))
        assert prediction.shape == (19, 3)
        assert all(handle.done for handle in waiting)  # rode the same batch
        assert server.metrics_snapshot()["max_batch_seen"] == 6

    def test_result_forces_flush(self, estimator, clock, rng):
        server = make_server(estimator, clock, max_batch_size=64, max_queue_depth=100)
        handle = server.enqueue("a", make_frame(rng))
        assert not handle.done
        assert handle.result().shape == (19, 3)

    def test_latency_is_measured_with_injected_clock(self, estimator, clock, rng):
        server = make_server(estimator, clock, max_batch_size=64, max_queue_depth=100)
        server.enqueue("a", make_frame(rng))
        clock.advance(0.010)
        server.flush()
        snapshot = server.metrics_snapshot()
        assert snapshot["latency_p50_ms"] == pytest.approx(10.0)
        assert snapshot["latency_p95_ms"] == pytest.approx(10.0)


class TestSessionBounds:
    def test_session_eviction_is_counted(self, estimator, clock, rng):
        server = make_server(
            estimator, clock, max_sessions=2, max_batch_size=2, max_queue_depth=100
        )
        for index in range(4):
            server.enqueue(f"u{index}", make_frame(rng))
        server.flush()
        snapshot = server.metrics_snapshot()
        assert snapshot["sessions"] == 2
        assert snapshot["session_evictions"] == 2

    def test_forget_user_clears_session_and_adapter(self, estimator, clock, rng):
        server = make_server(estimator, clock, max_batch_size=2, max_queue_depth=100)
        server.submit("a", make_frame(rng))
        assert "a" in server.sessions
        server.forget_user("a")
        assert "a" not in server.sessions

    def test_predictions_unaffected_by_drops_of_other_users(self, estimator, clock, rng):
        """A served request's value does not depend on queue churn around it."""
        frame = make_frame(rng)
        calm = make_server(estimator, clock, max_queue_depth=100)
        value_calm = calm.submit("victim", frame)
        stormy = make_server(estimator, clock, max_queue_depth=2)
        stormy.enqueue("noise-1", make_frame(rng))
        stormy.enqueue("noise-2", make_frame(rng))
        handle = stormy.enqueue("victim", frame)  # drops noise-1
        stormy.flush()
        np.testing.assert_array_equal(value_calm, handle.result(flush=False))
