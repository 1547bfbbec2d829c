"""Live user migration: export/import round-trips are bitwise, validated.

The property everything else builds on: moving a user between two
same-weight servers (export the session ring + adapter archive, import on
the destination) leaves the user's *next* prediction bitwise identical to
never having moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.loader import ArrayDataset
from repro.serve import (
    AdapterPolicy,
    MigrationError,
    PoseServer,
    ProcessShardedPoseServer,
    ServeConfig,
    SessionMirror,
)
from repro.serve.migration import USER_STATE_VERSION, validate_user_state
from repro.serve.transport import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_message

from .conftest import make_frame

LAZY = ServeConfig(max_batch_size=8, max_delay_ms=10_000.0)


def feed(server, user, count, seed=0):
    """Stream ``count`` frames for ``user``; returns the prediction list."""
    rng = np.random.default_rng(seed)
    return [server.submit(user, make_frame(rng)) for _ in range(count)]


@pytest.fixture()
def calibration(estimator, serve_dataset):
    arrays = estimator.prepare(serve_dataset[:8])
    return ArrayDataset(arrays.features, arrays.labels)


class TestExportImportRoundTrip:
    def test_moved_user_predicts_bitwise_identically(self, estimator):
        source = PoseServer(estimator, LAZY)
        stayed = PoseServer(estimator, LAZY)
        target = PoseServer(estimator, LAZY)

        feed(source, "alice", 4, seed=1)
        feed(stayed, "alice", 4, seed=1)

        state = source.export_user("alice", forget=True)
        assert source.sessions.get("alice") is None
        target.import_user(state)

        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            moved = target.submit("alice", make_frame(rng_a))
            reference = stayed.submit("alice", make_frame(rng_b))
            np.testing.assert_array_equal(moved, reference)

    def test_adapter_moves_with_the_user(self, estimator, calibration):
        policy = AdapterPolicy(scope="last", epochs=2)
        source = PoseServer(estimator, LAZY, policy=policy)
        stayed = PoseServer(estimator, LAZY, policy=policy)
        target = PoseServer(estimator, LAZY, policy=policy)

        source.adapt_user("alice", calibration)
        stayed.adapt_user("alice", calibration)
        feed(source, "alice", 2, seed=2)
        feed(stayed, "alice", 2, seed=2)

        state = source.export_user("alice", forget=True)
        target.import_user(state)
        assert "alice" in target.registry.user_ids
        assert "alice" not in source.registry.user_ids

        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        np.testing.assert_array_equal(
            target.submit("alice", make_frame(rng_a)),
            stayed.submit("alice", make_frame(rng_b)),
        )

    def test_damaged_adapter_bytes_leave_the_destination_unchanged(
        self, estimator, calibration
    ):
        """The adapter record's CRC is checked before the session ring is
        restored, so a state with damaged adapter bytes installs nothing."""
        policy = AdapterPolicy(scope="last", epochs=1)
        source = PoseServer(estimator, LAZY, policy=policy)
        source.adapt_user("alice", calibration)
        feed(source, "alice", 2, seed=2)
        state = source.export_user("alice")
        damaged = state["adapter"].copy()
        damaged[len(damaged) // 2] ^= 0xFF
        state["adapter"] = damaged

        target = PoseServer(estimator, LAZY, policy=policy)
        with pytest.raises(ValueError, match="CRC32"):
            target.import_user(state)
        assert target.sessions.get("alice") is None
        assert "alice" not in target.registry

    def test_export_without_state_is_none(self, estimator):
        assert PoseServer(estimator, LAZY).export_user("ghost") is None

    def test_exported_session_holds_the_ring_and_its_window(self, estimator):
        """A ring's capacity is the window ``2M + 1``, so the session state
        records ``M`` and the frames, never a capacity of its own."""
        server = PoseServer(estimator, LAZY)
        feed(server, "alice", 5)
        session = server.export_user("alice")["session"]
        assert set(session) == {
            "frames_seen",
            "num_context_frames",
            "points",
            "timestamps",
            "frame_indices",
        }
        assert session["num_context_frames"] == 1
        assert session["frames_seen"] == 5
        assert len(session["points"]) == 3

    def test_state_with_a_ring_capacity_key_still_imports(self, estimator):
        """Version-2 states exported before the capacity key was dropped
        carry ``ring_capacity``; import ignores it and moves the user
        bitwise."""
        source = PoseServer(estimator, LAZY)
        stayed = PoseServer(estimator, LAZY)
        target = PoseServer(estimator, LAZY)
        feed(source, "alice", 4, seed=1)
        feed(stayed, "alice", 4, seed=1)
        state = source.export_user("alice", forget=True)
        state["session"]["ring_capacity"] = 3
        target.import_user(state)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        np.testing.assert_array_equal(
            target.submit("alice", make_frame(rng_a)),
            stayed.submit("alice", make_frame(rng_b)),
        )

    def test_forget_false_keeps_the_source_serving(self, estimator):
        server = PoseServer(estimator, LAZY)
        feed(server, "alice", 2)
        server.export_user("alice", forget=False)
        assert server.sessions.get("alice") is not None

    def test_state_survives_wire_style_byte_round_trip(self, estimator):
        """The adapter travels as uint8 ndarray (JSON carries no raw bytes);
        importing from the array form must equal the bytes form."""
        policy = AdapterPolicy(scope="last", epochs=1)
        source = PoseServer(estimator, LAZY, policy=policy)
        rng = np.random.default_rng(0)
        source.submit("bob", make_frame(rng))
        state = source.export_user("bob")
        assert state["adapter"] is None  # never adapted: session only
        assert isinstance(state["session"]["points"][0], np.ndarray)


class TestWireFrame:
    def test_default_scope_user_state_fits_one_frame(self, estimator, calibration):
        """A default-policy (``scope="all"``) user's ``user_state`` reply —
        the uncompressed adapter record plus the session ring — encodes
        under the default frame limit, so router migration and failover
        of such users move in one frame; the decoded state imports to the
        same next prediction."""
        policy = AdapterPolicy()
        assert policy.scope == "all"
        source = PoseServer(estimator, LAZY, policy=policy)
        stayed = PoseServer(estimator, LAZY, policy=policy)
        for server in (source, stayed):
            server.adapt_user("alice", calibration)
            feed(server, "alice", 3, seed=11)

        state = source.export_user("alice", forget=True)
        frame = encode_message({"type": "user_state", "id": 1, "user": "alice", "state": state})
        assert len(frame) < DEFAULT_MAX_FRAME_BYTES
        [(reply, _)] = FrameDecoder().feed(frame)

        target = PoseServer(estimator, LAZY, policy=policy)
        target.import_user(reply["state"])
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        np.testing.assert_array_equal(
            target.submit("alice", make_frame(rng_a)),
            stayed.submit("alice", make_frame(rng_b)),
        )


class TestShardedDelegation:
    def test_sharded_server_routes_export_to_the_users_shard(self, estimator):
        reference = PoseServer(estimator, LAZY)
        feed(reference, "carol", 3, seed=4)
        with ProcessShardedPoseServer(
            estimator, num_shards=2, config=LAZY
        ) as sharded, ProcessShardedPoseServer(
            estimator, num_shards=2, config=LAZY
        ) as importer:
            feed(sharded, "carol", 3, seed=4)
            state = sharded.export_user("carol", forget=True)
            assert sharded.metrics_snapshot()["sessions"] == 0
            importer.import_user(state)
            rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
            np.testing.assert_array_equal(
                importer.submit("carol", make_frame(rng_a)),
                reference.submit("carol", make_frame(rng_b)),
            )

    def test_process_sharded_export_crosses_the_pickle_boundary(self, estimator):
        server = ProcessShardedPoseServer(estimator, num_shards=1, config=LAZY)
        try:
            feed(server, "dave", 2, seed=6)
            state = server.export_user("dave")
            assert state is not None and state["user"] == "dave"
            validate_user_state(state)
            server.import_user(state)  # idempotent restore onto itself
        finally:
            server.close()


class TestValidation:
    def make_state(self, **overrides):
        state = {
            "version": USER_STATE_VERSION,
            "user": "alice",
            "session": {
                "frames_seen": 1,
                "points": [np.zeros((4, 5))],
                "timestamps": [0.0],
                "frame_indices": [0],
            },
            "adapter": None,
        }
        state.update(overrides)
        return state

    def test_valid_state_passes(self):
        validate_user_state(self.make_state())

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"version": 99}, "version"),
            ({"user": None}, "user"),
            ({"user": True}, "user"),
            ({"session": None}, "neither session nor adapter"),
            ({"session": {"frames_seen": 1}}, "missing keys"),
            ({"adapter": np.zeros(3)}, "uint8"),
        ],
    )
    def test_malformed_states_raise(self, overrides, match):
        with pytest.raises(MigrationError, match=match):
            validate_user_state(self.make_state(**overrides))

    def test_non_dict_rejected(self):
        with pytest.raises(MigrationError, match="must be a dict"):
            validate_user_state([1, 2, 3])

    def test_ring_length_mismatch_rejected(self):
        state = self.make_state()
        state["session"]["timestamps"] = [0.0, 1.0]
        with pytest.raises(MigrationError, match="disagree in length"):
            validate_user_state(state)

    def test_context_window_mismatch_refused(self, estimator):
        server = PoseServer(estimator, LAZY)
        state = self.make_state()
        state["session"]["num_context_frames"] = 7
        with pytest.raises(MigrationError, match="num_context_frames"):
            server.import_user(state)


class TestSessionMirror:
    def test_mirror_restores_a_bitwise_ring(self, estimator):
        """Frames observed by the mirror restore a ring equal to the dead
        backend's: predictions after restore match an unbroken server."""
        unbroken = PoseServer(estimator, LAZY)
        mirror = SessionMirror(capacity=8)
        rng = np.random.default_rng(7)
        for index in range(4):
            frame = make_frame(rng)
            unbroken.submit("erin", frame)
            mirror.observe("erin", frame.points, frame.timestamp, frame.frame_index)

        replacement = PoseServer(estimator, LAZY)
        replacement.import_user(mirror.user_state("erin"))
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        np.testing.assert_array_equal(
            replacement.submit("erin", make_frame(rng_a)),
            unbroken.submit("erin", make_frame(rng_b)),
        )

    def test_import_keeps_the_newest_frames_that_fit_the_ring(self, estimator):
        """A mirror holds more frames than a ring: the destination keeps the
        newest ``2M + 1`` of them and the full frame count."""
        mirror = SessionMirror(capacity=8)
        for index in range(6):
            mirror.observe("erin", np.full((2, 5), float(index)), 0.1 * index, index)
        server = PoseServer(estimator, LAZY)
        server.import_user(mirror.user_state("erin"))
        session = server.sessions.get("erin")
        assert [frame.frame_index for frame in session.history] == [3, 4, 5]
        assert session.frames_seen == 6

    def test_capacity_bounds_the_ring(self):
        mirror = SessionMirror(capacity=2)
        for index in range(5):
            mirror.observe("u", np.full((1, 5), index, dtype=float), float(index), index)
        state = mirror.user_state("u")
        assert state["session"]["frames_seen"] == 5
        assert [int(p[0, 0]) for p in state["session"]["points"]] == [3, 4]

    def test_lru_bounds_users(self):
        mirror = SessionMirror(capacity=2, max_users=2)
        for user in ("a", "b", "c"):
            mirror.observe(user, np.zeros((1, 5)), 0.0, 0)
        assert "a" not in mirror and len(mirror) == 2

    def test_forget_and_missing_user(self):
        mirror = SessionMirror()
        mirror.observe("u", np.zeros((1, 5)), 0.0, 0)
        mirror.forget("u")
        assert mirror.user_state("u") is None

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            SessionMirror(capacity=0)
        with pytest.raises(ValueError):
            SessionMirror(max_users=0)
