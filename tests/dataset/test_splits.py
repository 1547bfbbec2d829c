"""Tests for the paper's dataset splits."""

from __future__ import annotations

import pytest

from repro.dataset.splits import leave_out_split, per_movement_split


def _keys(dataset):
    return {(s.subject_id, s.movement_name, s.sequence_id, s.frame_index) for s in dataset}


class TestPerMovementSplit:
    def test_partition_sizes_roughly_60_20_20(self, tiny_dataset):
        split = per_movement_split(tiny_dataset)
        total = len(tiny_dataset)
        train, val, test = split.sizes()
        assert train + val + test == total
        assert train / total == pytest.approx(0.6, abs=0.05)
        assert val / total == pytest.approx(0.2, abs=0.05)
        assert test / total == pytest.approx(0.2, abs=0.05)

    def test_partitions_are_disjoint(self, tiny_dataset):
        split = per_movement_split(tiny_dataset)
        assert _keys(split.train) & _keys(split.validation) == set()
        assert _keys(split.train) & _keys(split.test) == set()
        assert _keys(split.validation) & _keys(split.test) == set()

    def test_every_movement_in_every_partition(self, tiny_dataset):
        split = per_movement_split(tiny_dataset)
        movements = set(tiny_dataset.movements())
        assert set(split.train.movements()) == movements
        assert set(split.validation.movements()) == movements
        assert set(split.test.movements()) == movements

    def test_every_subject_in_every_partition(self, tiny_dataset):
        split = per_movement_split(tiny_dataset)
        subjects = set(tiny_dataset.subjects())
        assert set(split.train.subjects()) == subjects
        assert set(split.test.subjects()) == subjects

    def test_chronological_order_preserved(self, tiny_dataset):
        """Training frames of a block must precede test frames of the same block."""
        split = per_movement_split(tiny_dataset)
        for subject in tiny_dataset.subjects():
            for movement in tiny_dataset.movements():
                train_block = split.train.for_subject(subject).for_movement(movement)
                test_block = split.test.for_subject(subject).for_movement(movement)
                if len(train_block) and len(test_block):
                    assert max(s.frame_index for s in train_block) < min(
                        s.frame_index for s in test_block
                    )

    def test_custom_fractions(self, tiny_dataset):
        split = per_movement_split(tiny_dataset, train_fraction=0.8, validation_fraction=0.1)
        train, val, test = split.sizes()
        assert train > 4 * val

    def test_invalid_fractions_raise(self, tiny_dataset):
        with pytest.raises(ValueError):
            per_movement_split(tiny_dataset, train_fraction=1.2)
        with pytest.raises(ValueError):
            per_movement_split(tiny_dataset, train_fraction=0.6, validation_fraction=0.5)


class TestLeaveOutSplit:
    def test_training_excludes_held_out_subject_and_movement(self, tiny_dataset):
        split = leave_out_split(
            tiny_dataset, held_out_subject=4, held_out_movement="right_limb_extension",
            finetune_frames=10,
        )
        assert 4 not in split.train.subjects()
        assert "right_limb_extension" not in split.train.movements()
        assert 4 not in split.original_eval.subjects()
        assert "right_limb_extension" not in split.original_eval.movements()

    def test_dtest_is_the_intersection_pair(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        for dataset in (split.finetune, split.evaluation):
            assert dataset.subjects() == [4]
            assert dataset.movements() == ["right_limb_extension"]

    def test_finetune_frames_respected(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        assert len(split.finetune) == 10

    def test_finetune_frames_capped_at_half(self, tiny_dataset):
        pair_size = len(tiny_dataset.for_subject(4).for_movement("right_limb_extension"))
        split = leave_out_split(tiny_dataset, finetune_frames=10 * pair_size)
        assert len(split.finetune) <= pair_size // 2 + 1

    def test_finetune_frames_are_earliest(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        last_finetune = max(s.frame_index for s in split.finetune)
        first_eval = min(s.frame_index for s in split.evaluation)
        assert last_finetune < first_eval

    def test_original_eval_disjoint_from_train(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        assert _keys(split.train) & _keys(split.original_eval) == set()

    def test_no_overlap_between_finetune_and_evaluation(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        assert _keys(split.finetune) & _keys(split.evaluation) == set()

    def test_all_frames_accounted_for(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        used = (
            len(split.train)
            + len(split.original_eval)
            + len(split.finetune)
            + len(split.evaluation)
        )
        pair = len(tiny_dataset.for_subject(4).for_movement("right_limb_extension"))
        unused_excluded = (
            len(tiny_dataset.for_subject(4)) + len(tiny_dataset.for_movement("right_limb_extension")) - 2 * pair
        )
        assert used + unused_excluded == len(tiny_dataset)

    def test_describe_mentions_held_out_choice(self, tiny_dataset):
        split = leave_out_split(tiny_dataset, finetune_frames=10)
        text = split.describe()
        assert "subject 4" in text
        assert "right_limb_extension" in text

    def test_missing_pair_raises(self, tiny_dataset):
        with pytest.raises(ValueError):
            leave_out_split(tiny_dataset, held_out_subject=9, finetune_frames=10)

    def test_different_held_out_movement(self, tiny_dataset):
        split = leave_out_split(
            tiny_dataset, held_out_subject=1, held_out_movement="squat", finetune_frames=10
        )
        assert split.evaluation.movements() == ["squat"]
        assert "squat" not in split.train.movements()
