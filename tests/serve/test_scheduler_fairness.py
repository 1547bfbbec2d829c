"""Deterministic scheduler suite: clock seam, batch assembly, rate limiting.

Every test here runs on the injected :class:`repro.serve.FakeClock` — no
``time.sleep``, no wall-clock flakiness — so the scheduling properties are
asserted exactly:

* the :class:`Clock` seam (monotonic by default, fake/steppable in tests);
* :class:`TokenBucket` refill is an exact pure function of the clock;
* batch assembly is arrival order whatever the deadlines (the
  bitwise-replay invariant), and a batch closes when full or flushed, so
  the queue never holds a full batch (a seeded hypothesis property);
* property-style randomized arrival schedules: no traffic class starves,
  drop-oldest evicts by arrival, and the mixed-class acceptance pin —
  interactive p95 within its budget while bulk keeps >= 70% of its
  capacity-matched isolated throughput.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    Clock,
    FakeClock,
    FrameDropped,
    MicroBatcher,
    MonotonicClock,
    PendingPrediction,
    PoseServer,
    QueueFull,
    SchedulingPolicy,
    ServeConfig,
    ServeRequest,
    TokenBucket,
    TrafficClass,
    as_clock,
)

from .conftest import make_frame


# ----------------------------------------------------------------------
# The Clock seam
# ----------------------------------------------------------------------
class TestClockSeam:
    def test_fake_clock_advances_exactly(self):
        clock = FakeClock()
        assert clock.now() == 0.0
        assert clock.advance(0.25) == 0.25
        assert clock.now() == 0.25
        assert clock() == 0.25  # callable: satisfies clock=... parameters

    def test_fake_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-0.1)

    def test_monotonic_clock_is_nondecreasing(self):
        clock = MonotonicClock()
        readings = [clock.now() for _ in range(100)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

    def test_as_clock_coerces_callables_and_passes_clocks_through(self):
        fake = FakeClock(start=3.0)
        assert as_clock(fake) is fake
        wrapped = as_clock(lambda: 7.0)
        assert isinstance(wrapped, Clock)
        assert wrapped.now() == 7.0

    def test_server_accepts_a_clock_instance(self, estimator):
        clock = FakeClock()
        server = PoseServer(estimator, ServeConfig(gemm_block=8), clock=clock)
        rng = np.random.default_rng(0)
        server.enqueue("u", make_frame(rng))
        clock.advance(0.010)
        assert server.flush() == 1
        snapshot = server.metrics_snapshot()
        assert snapshot["latency_p50_ms"] == pytest.approx(10.0)  # the fake clock's 10 ms
        assert snapshot["deadline_misses"] == 1  # past the 5 ms default budget


# ----------------------------------------------------------------------
# Token buckets: refill is an exact function of the injected clock
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_drains_per_acquire(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, now=clock.now())
        assert bucket.balance(clock.now()) == 4.0
        assert all(bucket.try_acquire(clock.now()) for _ in range(4))
        assert not bucket.try_acquire(clock.now())

    def test_refill_is_exact_on_the_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, now=clock.now())
        for _ in range(4):
            bucket.try_acquire(clock.now())
        clock.advance(0.5)  # exactly one token at 2 tokens/s
        assert bucket.balance(clock.now()) == pytest.approx(1.0)
        assert bucket.try_acquire(clock.now())
        assert not bucket.try_acquire(clock.now())

    def test_retry_after_is_the_exact_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, now=clock.now())
        assert bucket.try_acquire(clock.now())
        # One whole token short at 4 tokens/s: exactly 0.25 s away.
        assert bucket.retry_after_s(clock.now()) == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.try_acquire(clock.now())
        assert bucket.retry_after_s(clock.now()) == pytest.approx(0.25)

    def test_refill_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, now=clock.now())
        clock.advance(60.0)
        assert bucket.balance(clock.now()) == 3.0

    def test_randomized_refill_matches_closed_form(self):
        """Property: after any acquire/advance schedule the balance equals
        min(burst, tokens_at_last_acquire + rate * elapsed)."""
        rng = np.random.default_rng(11)
        clock = FakeClock()
        rate, burst = 3.0, 5.0
        bucket = TokenBucket(rate=rate, burst=burst, now=clock.now())
        expected = burst
        for _ in range(200):
            step = float(rng.uniform(0.0, 0.4))
            clock.advance(step)
            expected = min(burst, expected + rate * step)
            assert bucket.balance(clock.now()) == pytest.approx(expected)
            if rng.random() < 0.5 and expected >= 1.0:
                assert bucket.try_acquire(clock.now())
                expected -= 1.0


# ----------------------------------------------------------------------
# SchedulingPolicy
# ----------------------------------------------------------------------
class TestSchedulingPolicy:
    def test_from_delay_anchors_interactive_on_max_delay(self):
        policy = SchedulingPolicy.from_delay(5.0)
        assert policy.resolve("interactive").budget_ms == 5.0
        assert policy.resolve("bulk").budget_ms == 50.0
        assert policy.resolve(None).name == "interactive"

    def test_unknown_class_is_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic class"):
            SchedulingPolicy.from_delay(5.0).resolve("premium")

    def test_round_trips_through_dict(self):
        policy = SchedulingPolicy(
            classes=(TrafficClass("interactive", 4.0), TrafficClass("bulk", 80.0)),
            default_class="bulk",
            rate_limit_per_user=20.0,
            rate_limit_burst=5.0,
            retry_after_ms=40.0,
        )
        assert SchedulingPolicy.from_dict(policy.to_dict()) == policy

    def test_config_derives_policy_from_max_delay(self):
        config = ServeConfig(max_delay_ms=8.0)
        assert config.scheduler.resolve("interactive").budget_ms == 8.0
        assert config.scheduler.resolve("bulk").budget_ms == 80.0


# ----------------------------------------------------------------------
# Batch assembly (pure MicroBatcher, dummy requests)
# ----------------------------------------------------------------------
def make_request(sequence: int, arrival: float, deadline: float) -> ServeRequest:
    pending = PendingPrediction(f"u{sequence}", sequence, flush=lambda: 0)
    return ServeRequest(
        f"u{sequence}", None, pending, arrival, deadline=deadline, traffic_class="x"
    )


class TestEdfOrdering:
    """Drain and eviction order: arrival order, whatever the deadlines."""

    def test_single_class_degenerates_to_arrival_order(self):
        """Uniform budgets (one class) and mixed ones alike drain in arrival
        order, across batches — the invariant that keeps replay
        bitwise-identical whatever the traffic mix."""
        rng = np.random.default_rng(0)
        uniform = [0.005] * 32
        mixed = rng.choice([0.0, 0.005, 0.050, 10.0], size=32)
        for budgets in (uniform, mixed):
            batcher = MicroBatcher(ServeConfig(max_batch_size=16, max_queue_depth=512))
            for sequence, budget in enumerate(budgets):
                arrival = sequence * 0.001
                batcher.enqueue(make_request(sequence, arrival, deadline=arrival + budget))
            drained = batcher.drain() + batcher.drain()
            assert [request.pending.sequence for request in drained] == list(range(32))
            assert len(batcher) == 0

    def test_drain_takes_at_most_one_batch_from_the_front(self):
        """Each drain pops the next ``max_batch_size`` arrivals, earliest
        deadline or not, leaving the rest queued; a short tail drains whole
        and an empty queue drains nothing."""
        batcher = MicroBatcher(ServeConfig(max_batch_size=8, max_queue_depth=64))
        deadlines = np.random.default_rng(1).uniform(0.0, 1.0, size=20)
        for sequence, deadline in enumerate(deadlines):
            batcher.enqueue(make_request(sequence, sequence * 0.001, float(deadline)))
        for start, remaining in ((0, 12), (8, 4), (16, 0)):
            batch = batcher.drain()
            expected = list(range(start, min(start + 8, 20)))
            assert [request.pending.sequence for request in batch] == expected
            assert len(batcher) == remaining
        assert batcher.drain() == []

    def test_drop_oldest_evicts_by_arrival_not_deadline(self):
        """A loose-budget (late-deadline) request cannot shield itself from
        eviction: the oldest *arrival* goes, whatever its deadline."""
        batcher = MicroBatcher(ServeConfig(max_batch_size=64, max_queue_depth=3))
        loose = make_request(0, arrival=0.0, deadline=99.0)  # oldest, latest deadline
        tight = make_request(1, arrival=0.001, deadline=0.002)
        batcher.enqueue(loose)
        batcher.enqueue(tight)
        batcher.enqueue(make_request(2, arrival=0.002, deadline=0.003))
        batcher.admit()  # queue full: makes room for a 4th
        assert loose.pending.dropped and not tight.pending.dropped
        assert "drop_oldest" in loose.pending.drop_reason

    def test_evicted_handle_resolves_with_error_never_hangs(self):
        """Regression: an evicted ticket must resolve with FrameDropped (with
        its reason), not sit pending forever for a poller to wait on."""
        batcher = MicroBatcher(ServeConfig(max_batch_size=64, max_queue_depth=1))
        victim = make_request(0, arrival=0.0, deadline=0.005)
        batcher.enqueue(victim)
        batcher.admit()
        assert victim.pending.dropped
        with pytest.raises(FrameDropped, match="drop_oldest"):
            victim.pending.result(flush=False)


# ----------------------------------------------------------------------
# Deadline accounting on a live server (fake clock)
# ----------------------------------------------------------------------
class TestDeadlineAccounting:
    @pytest.mark.parametrize(
        "priority, deadline_ms, wait_ms, missed",
        [
            ("interactive", None, 4.0, 0),
            ("interactive", None, 6.0, 1),
            ("bulk", None, 40.0, 0),
            ("bulk", None, 60.0, 1),
            ("interactive", 100.0, 60.0, 0),
            ("bulk", 1.0, 4.0, 1),
        ],
        ids=[
            "interactive-in-budget",
            "interactive-late",
            "bulk-in-budget",
            "bulk-late",
            "frame-deadline-loosens",
            "frame-deadline-tightens",
        ],
    )
    def test_flushed_frame_is_judged_against_its_own_deadline(
        self, estimator, priority, deadline_ms, wait_ms, missed
    ):
        """A partial batch waits for its flush however late it runs; the
        served frame then counts as a miss exactly when it waited past its
        class budget (5 ms interactive, 50 ms bulk) or its own
        ``deadline_ms``, and its wait lands in its class's latency figure."""
        clock = FakeClock()
        server = PoseServer(estimator, ServeConfig(max_batch_size=64), clock=clock)
        handle = server.enqueue(
            "u", make_frame(np.random.default_rng(0)), priority=priority, deadline_ms=deadline_ms
        )
        clock.advance(wait_ms / 1000.0)
        assert server.pending == 1 and not handle.done
        assert server.flush() == 1
        snapshot = server.metrics_snapshot()
        assert snapshot["deadline_misses"] == missed
        assert snapshot[f"class_{priority}_completed"] == 1
        assert snapshot[f"class_{priority}_latency_p95_ms"] == pytest.approx(wait_ms)


# ----------------------------------------------------------------------
# Randomized fairness on a live server (fake clock)
# ----------------------------------------------------------------------
class TestRandomizedFairness:
    @pytest.mark.parametrize("seed", [7, 19])
    def test_no_class_starves_under_random_mixed_load(self, estimator, seed):
        """Seeded random arrivals of both classes: every admitted request
        resolves, bulk included — a batch closes when it fills, in arrival
        order, and one final flush empties the queue."""
        rng = np.random.default_rng(seed)
        clock = FakeClock()
        server = PoseServer(
            estimator,
            ServeConfig(max_batch_size=16, max_queue_depth=4096, gemm_block=8),
            clock=clock,
        )
        handles = []
        for tick in range(120):
            clock.advance(0.001)
            for _ in range(int(rng.integers(0, 4))):
                priority = "interactive" if rng.random() < 0.7 else "bulk"
                user = f"{priority[0]}{int(rng.integers(0, 6))}"
                handle = server.enqueue(user, make_frame(rng), priority=priority)
                handles.append((priority, clock.now(), handle))
        server.flush()
        assert all(h.done for _, _, h in handles)  # nothing starved or stuck
        snapshot = server.metrics_snapshot()
        assert snapshot["completed"] == len(handles)
        assert snapshot["dropped"] == 0
        by_class = {p for p, _, _ in handles}
        for name in by_class:
            assert snapshot[f"class_{name}_completed"] > 0

    def test_bulk_request_completes_by_its_deadline_under_interactive_flood(
        self, estimator
    ):
        """One bulk request, then a steady interactive flood: arrival order
        puts it in the first batch that fills, inside its own budget."""
        rng = np.random.default_rng(3)
        clock = FakeClock()
        server = PoseServer(
            estimator,
            ServeConfig(max_batch_size=4, max_queue_depth=4096, gemm_block=8),
            clock=clock,
        )
        bulk = server.enqueue("bulk-user", make_frame(rng), priority="bulk")
        bulk_deadline = clock.now() + 0.050
        for _ in range(80):  # 80 ms of flood at 3 interactive frames/ms
            clock.advance(0.001)
            for i in range(3):
                server.enqueue(f"i{i}", make_frame(rng), priority="interactive")
            if bulk.done:
                break
        server.flush()
        assert bulk.done
        assert clock.now() <= bulk_deadline + 1e-9
        assert server.metrics_snapshot()["class_bulk_latency_p95_ms"] <= 50.0


# ----------------------------------------------------------------------
# Mixed-class acceptance pin (fake-clock analog of the bench section)
# ----------------------------------------------------------------------
def _run_mixed_replay(estimator, include_interactive: bool) -> dict:
    """Deterministic overload replay; returns the metrics snapshot.

    Interactive: 2 users, 1 frame/ms each.  Bulk: 4 users bursting 12
    frames every 25 ms (offsets 0/1/2 collide, 13 rides alone).  The queue
    depth (16) sits *below* the batch size (24), so enqueue's flush-on-full
    never rescues an overflowing queue: the colliding bursts genuinely
    exercise drop-oldest eviction.  Both variants flush on a
    capacity-matched 5 ms cadence so the isolated run measures queue
    contention.
    """
    clock = FakeClock()
    server = PoseServer(
        estimator,
        ServeConfig(
            max_batch_size=24, max_queue_depth=16, max_delay_ms=5.0, gemm_block=8
        ),
        clock=clock,
    )
    rng = np.random.default_rng(5)
    for tick in range(200):
        clock.advance(0.001)
        if include_interactive:
            for user in range(2):
                server.enqueue(f"int-{user}", make_frame(rng), priority="interactive")
        for user, offset in enumerate((0, 1, 2, 13)):
            if tick % 25 == offset:
                for _ in range(12):
                    server.enqueue(f"bulk-{user}", make_frame(rng), priority="bulk")
        if tick % 5 == 4:
            server.flush()  # capacity-matched service cadence for both runs
    while server.flush():
        pass
    return server.metrics_snapshot()


class TestMixedClassAcceptance:
    def test_interactive_p95_meets_budget_and_bulk_keeps_70_percent(self, estimator):
        mixed = _run_mixed_replay(estimator, include_interactive=True)
        isolated = _run_mixed_replay(estimator, include_interactive=False)
        # The replay is a real overload: evictions actually happened.
        assert mixed["dropped"] > 0
        # Interactive p95 meets the class budget (5 ms) under contention.
        assert mixed["class_interactive_latency_p95_ms"] <= 5.0 + 1e-6
        # Bulk meets its own (relaxed) budget too.
        assert mixed["class_bulk_latency_p95_ms"] <= 50.0 + 1e-6
        # Bulk keeps >= 70% of its capacity-matched isolated throughput.
        assert isolated["class_bulk_completed"] > 0
        ratio = mixed["class_bulk_completed"] / isolated["class_bulk_completed"]
        assert ratio >= 0.70

    def test_per_class_replay_is_bitwise_identical_to_unbatched(self, estimator):
        """Within a class, micro-batched serving returns bit-for-bit the
        predictions of an unbatched (max_batch_size=1) server."""
        rng = np.random.default_rng(9)
        frames = {f"u{i}": [make_frame(rng) for _ in range(4)] for i in range(3)}

        def replay(config) -> dict:
            clock = FakeClock()
            server = PoseServer(estimator, config, clock=clock)
            handles = {user: [] for user in frames}
            for round_index in range(4):
                for user, stream in frames.items():
                    clock.advance(0.0005)
                    priority = "bulk" if user == "u2" else "interactive"
                    handles[user].append(
                        server.enqueue(user, stream[round_index], priority=priority)
                    )
                if round_index % 2 == 1:
                    server.flush()  # two batches of six mixed-class frames
            return {
                user: [h.result(flush=False) for h in per_user]
                for user, per_user in handles.items()
            }

        batched = replay(ServeConfig(max_batch_size=16, max_queue_depth=256, gemm_block=8))
        unbatched = replay(ServeConfig(max_batch_size=1, max_queue_depth=256, gemm_block=8))
        for user in frames:
            for got, want in zip(batched[user], unbatched[user]):
                np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# The one batch-close rule: full or flushed, so never a full batch waiting
# ----------------------------------------------------------------------
_ENQUEUE = st.tuples(
    st.just("enqueue"),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([None, "interactive", "bulk"]),
    st.sampled_from([None, 0.0, 0.5, 1000.0]),
)


class TestQueueBound:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        max_batch_size=st.integers(1, 8),
        max_queue_depth=st.integers(1, 12),
        overflow=st.sampled_from(["drop_oldest", "reject"]),
        calls=st.lists(st.one_of(st.just(("flush",)), _ENQUEUE), max_size=30),
    )
    def test_queue_never_holds_a_full_batch(
        self, estimator, max_batch_size, max_queue_depth, overflow, calls
    ):
        """Random enqueue/flush sequences: after every call fewer than
        ``max_batch_size`` and at most ``max_queue_depth`` frames wait, a
        flush empties the queue, and every handle ends done or dropped."""
        clock = FakeClock()
        config = ServeConfig(
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
            overflow=overflow,
            gemm_block=8,
        )
        server = PoseServer(estimator, config, clock=clock)
        rng = np.random.default_rng(0)
        handles = []
        for call in calls:
            clock.advance(0.001)
            if call[0] == "flush":
                server.flush()
                assert server.pending == 0
            else:
                _, user, priority, deadline_ms = call
                try:
                    handles.append(
                        server.enqueue(
                            user, make_frame(rng, 8), priority=priority, deadline_ms=deadline_ms
                        )
                    )
                except (FrameDropped, QueueFull):
                    pass
            assert server.pending < max_batch_size
            assert server.pending <= max_queue_depth
        server.flush()
        assert server.pending == 0
        assert all(handle.done != handle.dropped for handle in handles)
