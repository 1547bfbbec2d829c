"""Tests for model checkpoint serialization."""

from __future__ import annotations

import hashlib
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import nn
from repro.nn import serialization
from repro.nn.serialization import (
    load_record,
    parse_record,
    read_record_header,
    record_bytes,
    save_record,
)
from repro.nn.tensor import Tensor


def state_dicts(max_dims: int = 3):
    """1-12 float64/float32 tensors, 0-d and empty shapes included."""
    tensors = st.sampled_from([np.float64, np.float32]).flatmap(
        lambda dtype: arrays(
            dtype, array_shapes(min_dims=0, max_dims=max_dims, min_side=0, max_side=3)
        )
    )
    return st.dictionaries(st.text(min_size=1, max_size=8), tensors, min_size=1, max_size=12)


_METADATA = st.none() | st.dictionaries(
    st.text(max_size=6), st.none() | st.integers() | st.text(max_size=6), max_size=3
)


def build_model():
    rng = np.random.default_rng(3)
    return nn.Sequential(nn.Linear(6, 4, rng=rng), nn.ReLU(), nn.Linear(4, 2, rng=rng))


class TestSaveLoadState:
    def test_roundtrip(self, tmp_path):
        state = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
        path = nn.save_state(state, tmp_path / "ckpt.npz")
        loaded, metadata = nn.load_state(path)
        assert metadata is None
        np.testing.assert_allclose(loaded["a"], state["a"])
        np.testing.assert_allclose(loaded["b"], state["b"])

    def test_metadata_roundtrip(self, tmp_path):
        path = nn.save_state({"x": np.zeros(2)}, tmp_path / "ckpt.npz", metadata={"epoch": 7, "tag": "fuse"})
        _, metadata = nn.load_state(path)
        assert metadata == {"epoch": 7, "tag": "fuse"}

    def test_extension_added_when_missing(self, tmp_path):
        path = nn.save_state({"x": np.zeros(1)}, tmp_path / "weights")
        assert path.suffix == ".npz"
        loaded, _ = nn.load_state(tmp_path / "weights")
        assert "x" in loaded

    def test_creates_parent_directories(self, tmp_path):
        path = nn.save_state({"x": np.zeros(1)}, tmp_path / "nested" / "dir" / "ckpt.npz")
        assert path.exists()


class TestSaveLoadModel:
    def test_model_roundtrip_preserves_outputs(self, tmp_path):
        model = build_model()
        x = Tensor(np.random.default_rng(0).normal(size=(5, 6)))
        expected = model(x).numpy()

        path = nn.save_model(model, tmp_path / "model.npz", metadata={"kind": "test"})
        fresh = build_model()
        # Perturb so the test would fail if loading did nothing.
        for param in fresh.parameters():
            param.data = param.data + 1.0
        metadata = nn.load_model_into(fresh, path)
        assert metadata == {"kind": "test"}
        np.testing.assert_allclose(fresh(x).numpy(), expected)

    def test_load_into_wrong_architecture_fails(self, tmp_path):
        model = build_model()
        path = nn.save_model(model, tmp_path / "model.npz")
        other = nn.Sequential(nn.Linear(6, 5, rng=np.random.default_rng(1)))
        with pytest.raises((KeyError, ValueError)):
            nn.load_model_into(other, path)


class TestRecords:
    @given(state_dicts(), _METADATA)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_bitwise(self, state, metadata):
        with tempfile.TemporaryDirectory() as tmp:
            path = save_record(state, Path(tmp) / "state.spill", metadata=metadata)
            loaded, loaded_metadata = load_record(path)
            assert read_record_header(path) == metadata
        assert loaded_metadata == metadata
        assert list(loaded) == list(state)
        for key, array in state.items():
            assert loaded[key].dtype == array.dtype
            assert loaded[key].shape == array.shape
            assert loaded[key].tobytes() == array.tobytes()

    @given(state_dicts(max_dims=2), st.integers(min_value=1, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_every_single_byte_flip_raises(self, state, mask):
        with tempfile.TemporaryDirectory() as tmp:
            path = save_record(state, Path(tmp) / "state.spill", metadata={"user": "u"})
            with open(path, "r+b") as handle:
                for position in range(path.stat().st_size):
                    handle.seek(position)
                    original = handle.read(1)
                    handle.seek(position)
                    handle.write(bytes([original[0] ^ mask]))
                    handle.flush()
                    with pytest.raises(ValueError):
                        load_record(path)
                    handle.seek(position)
                    handle.write(original)
                    handle.flush()
            load_record(path)  # every flip was undone: the record loads again

    @given(state_dicts(max_dims=2))
    @settings(max_examples=20, deadline=None)
    def test_every_truncation_raises(self, state):
        with tempfile.TemporaryDirectory() as tmp:
            path = save_record(state, Path(tmp) / "state.spill", metadata={"user": "u"})
            for length in reversed(range(path.stat().st_size)):
                os.truncate(path, length)
                with pytest.raises(ValueError):
                    load_record(path)
                with pytest.raises(ValueError):
                    read_record_header(path)

    def test_foreign_files_are_rejected(self, tmp_path):
        path = nn.save_state({"x": np.zeros(3)}, tmp_path / "ckpt.npz")
        with pytest.raises(ValueError, match="magic"):
            load_record(path)
        with pytest.raises(ValueError, match="magic"):
            read_record_header(path)

    @given(state_dicts(), _METADATA)
    @settings(max_examples=25, deadline=None)
    def test_bytes_form_is_the_file_and_parses_without_copies(self, state, metadata):
        data = record_bytes(state, metadata)
        with tempfile.TemporaryDirectory() as tmp:
            path = save_record(state, Path(tmp) / "state.spill", metadata=metadata)
            assert path.read_bytes() == data
        loaded, loaded_metadata = parse_record(data)
        assert loaded_metadata == metadata
        assert list(loaded) == list(state)
        raw = np.frombuffer(data, dtype=np.uint8)
        for key, array in state.items():
            assert loaded[key].tobytes() == array.tobytes()
            assert not loaded[key].flags.writeable
            if array.size:
                assert np.shares_memory(loaded[key], raw)

    def test_damaged_bytes_name_their_source(self):
        data = record_bytes({"x": np.arange(4.0)}, {"user": "u"})
        with pytest.raises(ValueError, match="migrated record failed its CRC32"):
            parse_record(data[:-1] + bytes([data[-1] ^ 1]), "migrated record")
        with pytest.raises(ValueError, match="migrated record is too short"):
            parse_record(data[:5], "migrated record")

    def test_record_bytes_are_pinned(self, tmp_path):
        """The record layout is a storage format: spill directories written
        by earlier versions attach unchanged only while the same state and
        metadata give the same bytes."""
        state = {
            "p000": np.arange(160.0).reshape(2, 80) / 7.0,
            "p001": (np.arange(32, dtype=np.float32) - 16).reshape(16, 2) / 3,
            "p002": np.arange(7, dtype=np.int64),
            "p003": np.zeros((0, 3)),
        }
        metadata = {"format": 2, "scope": "lora", "rank": 2, "user": ["str", "alice"]}
        data = record_bytes(state, metadata)
        assert len(data) == 1924
        assert hashlib.sha256(data).hexdigest() == (
            "a058afd85d8d76296c74a71b44ad467fe35317d03abaad764af3413a1740e592"
        )
        assert save_record(state, tmp_path / "u.spill", metadata).read_bytes() == data

    def test_write_is_atomic_and_leaves_no_temporaries(self, tmp_path):
        path = save_record({"x": np.arange(3.0)}, tmp_path / "nested" / "state.spill")
        save_record({"x": np.arange(4.0)}, path)
        assert [p.name for p in path.parent.iterdir()] == ["state.spill"]
        np.testing.assert_array_equal(load_record(path)[0]["x"], np.arange(4.0))


def _header_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    return data[12 : 12 + int.from_bytes(data[8:12], "little")]


class TestHeaderMemo:
    """Each distinct record header is decoded once; every load still checks
    the CRC and the record's length, and returns metadata of its own."""

    METADATA = {"format": 2, "user": ["str", "u"], "rank": 2}

    @pytest.fixture()
    def path(self, tmp_path):
        serialization._HEADER_MEMO.clear()
        state = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4, dtype=np.float32)}
        path = save_record(state, tmp_path / "state.spill", metadata=self.METADATA)
        load_record(path)
        return path

    def test_first_load_fills_the_memo(self, path):
        assert list(serialization._HEADER_MEMO) == [_header_bytes(path)]

    def test_flipped_payload_bit_still_fails_the_crc(self, path):
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # the last payload byte, just before the trailer
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="CRC32"):
            load_record(path)

    def test_appended_valid_crc_still_fails_the_length_check(self, path):
        """Four extra bytes that are a valid CRC of the rest pass the CRC
        check; the memoized header must still catch the wrong length."""
        data = path.read_bytes()
        path.write_bytes(data + zlib.crc32(data).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="its header describes"):
            load_record(path)
        with pytest.raises(ValueError, match="its header describes"):
            read_record_header(path)

    def test_mutating_returned_metadata_does_not_leak(self, path):
        _, metadata = load_record(path)
        metadata["rank"] = 99
        metadata["user"].append("x")
        header = read_record_header(path)
        header["user"][1] = "v"
        assert load_record(path)[1] == self.METADATA
        assert read_record_header(path) == self.METADATA

    def test_memo_is_cleared_when_full(self, path, tmp_path):
        for index in range(serialization._HEADER_MEMO_SIZE):
            load_record(save_record({"x": np.zeros(1)}, tmp_path / "many.spill", {"i": index}))
        assert len(serialization._HEADER_MEMO) == 1
        assert list(serialization._HEADER_MEMO) == [_header_bytes(tmp_path / "many.spill")]
