"""Tests of the batch-invariant shared-parameter inference kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.engine import lowrank_forward, lowrank_shapes
from repro.serve import SharedParameterKernel

from .conftest import make_frame


@pytest.fixture(scope="module")
def model():
    return PoseCNN(seed=3)


@pytest.fixture(scope="module")
def kernel(model):
    return SharedParameterKernel(model, block=16)


def _strided_stack() -> nn.Module:
    """Stride 2, padding 0 and a non-square kernel: (5, 8, 8) -> (7,)."""
    rng = np.random.default_rng(4)
    return nn.Sequential(
        nn.Conv2d(5, 8, (3, 2), stride=2, padding=0, rng=rng),
        nn.Tanh(),
        nn.Conv2d(8, 6, 2, stride=2, padding=0, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(6 * 1 * 2, 7, rng=rng),
    )


def _conv_only_stack() -> nn.Module:
    """No Flatten: the kernel's output must come back NCHW."""
    rng = np.random.default_rng(5)
    return nn.Sequential(nn.Conv2d(5, 4, 3, padding=1, rng=rng), nn.Sigmoid())


LOWERINGS = {
    "posecnn_3x3": lambda: PoseCNN(seed=3),
    "posecnn_5x5": lambda: PoseCNN(PoseCNNConfig(kernel_size=5), seed=6),
    "stride2_pad0": _strided_stack,
    "conv_only": _conv_only_stack,
}


def _forward(module: nn.Module, features: np.ndarray) -> np.ndarray:
    with nn.no_grad():
        return module(nn.Tensor(features)).numpy()


def _random_factors(module: nn.Module, frames: int, rng, rank: int = 3):
    """Non-zero per-frame ``[a0, b0, a1, b1, ...]`` stacks."""
    factors = []
    for fan_out, fan_in in lowrank_shapes(module):
        factors.append(rng.normal(scale=0.3, size=(frames, rank, fan_in)))
        factors.append(rng.normal(scale=0.3, size=(frames, fan_out, rank)))
    return factors


@pytest.mark.parametrize("name", sorted(LOWERINGS))
class TestLoweringGeometry:
    """The channels-last lowering beyond the 3x3 / stride 1 / padding 1 default."""

    def test_matches_module_forward(self, name, rng):
        module = LOWERINGS[name]()
        features = rng.normal(size=(11, 5, 8, 8))
        np.testing.assert_allclose(
            SharedParameterKernel(module, block=4).predict(features),
            _forward(module, features),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_single_frame_equals_full_block_bitwise(self, name, rng):
        kernel = SharedParameterKernel(LOWERINGS[name](), block=8)
        features = rng.normal(size=(8, 5, 8, 8))
        solo = np.concatenate([kernel.predict(features[i : i + 1]) for i in range(8)])
        np.testing.assert_array_equal(kernel.predict(features), solo)

    def test_lowrank_matches_adaptation_forward(self, name, rng):
        """Serving's low-rank path equals the path adaptation trains through
        (one task per frame), so a wrong factor permutation cannot hide."""
        module = LOWERINGS[name]()
        features = rng.normal(size=(9, 5, 8, 8))
        factors = _random_factors(module, 9, rng)
        kernel = SharedParameterKernel(module, block=4)
        served = kernel.predict_lowrank(features, factors)
        with nn.no_grad():
            adapted = lowrank_forward(
                module,
                [nn.Tensor(p.data) for p in module.parameters()],
                [nn.Tensor(f) for f in factors],
                nn.Tensor(features[:, None]),
            ).numpy()[:, 0]
        np.testing.assert_allclose(served, adapted, rtol=1e-9, atol=1e-12)
        # The deltas are live, so the check above is not base == base.
        assert not np.allclose(served, kernel.predict(features))


class TestBatchInvariance:
    def test_single_frame_equals_full_batch_bitwise(self, model, kernel, rng):
        """The property micro-batching rests on: batch composition is invisible."""
        features = rng.normal(size=(37, 5, 8, 8))
        full = kernel.predict(features)
        solo = np.concatenate([kernel.predict(features[i : i + 1]) for i in range(37)])
        np.testing.assert_array_equal(full, solo)

    def test_arbitrary_split_points_are_bitwise_identical(self, kernel, rng):
        features = rng.normal(size=(23, 5, 8, 8))
        full = kernel.predict(features)
        pieces = np.concatenate(
            [kernel.predict(features[:5]), kernel.predict(features[5:16]), kernel.predict(features[16:])]
        )
        np.testing.assert_array_equal(full, pieces)

    def test_neighbours_do_not_leak(self, kernel, rng):
        """A frame's prediction is independent of its co-riders' content."""
        features = rng.normal(size=(16, 5, 8, 8))
        others = rng.normal(size=(16, 5, 8, 8))
        mixed = others.copy()
        mixed[7] = features[7]
        np.testing.assert_array_equal(kernel.predict(features)[7], kernel.predict(mixed)[7])

    def test_matches_model_forward_numerically(self, model, kernel, rng):
        """Same mathematics as the training forward, different BLAS kernels."""
        features = rng.normal(size=(12, 5, 8, 8))
        np.testing.assert_allclose(
            kernel.predict(features), model.predict(features), rtol=1e-9, atol=1e-12
        )

    def test_predictions_are_row_major(self, kernel, rng):
        """Linear steps compute transposed; callers still get C-ordered rows."""
        for batch in (1, 37):
            assert kernel.predict(rng.normal(size=(batch, 5, 8, 8))).flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("frames", [16, 21], ids=["full_block", "block_and_tail"])
    def test_read_only_inputs_serve_bitwise(self, model, kernel, rng, frames):
        """Full blocks run on views of the caller's arrays, so no step may
        write its input: read-only features and factor stacks serve, with
        the bits writable copies give."""
        features = rng.normal(size=(frames, 5, 8, 8))
        factors = _random_factors(model, frames, rng)
        frozen = [array.copy() for array in (features, *factors)]
        for array in frozen:
            array.setflags(write=False)
        np.testing.assert_array_equal(kernel.predict(frozen[0]), kernel.predict(features))
        np.testing.assert_array_equal(
            kernel.predict_lowrank(frozen[0], frozen[1:]),
            kernel.predict_lowrank(features, factors),
        )
        for original, array in zip(frozen, (features, *factors)):
            np.testing.assert_array_equal(array, original)

    def test_predict_joints_shape(self, kernel, rng):
        joints = kernel.predict_joints(rng.normal(size=(4, 5, 8, 8)))
        assert joints.shape == (4, 19, 3)

    def test_empty_batch(self, kernel):
        assert kernel.predict(np.zeros((0, 5, 8, 8))).shape == (0, 57)


class TestConstruction:
    def test_explicit_parameters_override_model_state(self, model, rng):
        parameters = [rng.normal(size=p.data.shape) for p in model.parameters()]
        kernel = SharedParameterKernel(model, parameters=parameters, block=4)
        default = SharedParameterKernel(model, block=4)
        features = rng.normal(size=(3, 5, 8, 8))
        assert not np.allclose(kernel.predict(features), default.predict(features))

    def test_snapshot_isolates_from_later_model_mutation(self, rng):
        model = PoseCNN(seed=8)
        kernel = SharedParameterKernel(model, block=4)
        features = rng.normal(size=(2, 5, 8, 8))
        before = kernel.predict(features)
        for param in model.parameters():
            param.data += 1.0
        np.testing.assert_array_equal(kernel.predict(features), before)

    def test_rejects_width_one_blocks(self, model):
        with pytest.raises(ValueError, match="block"):
            SharedParameterKernel(model, block=1)

    def test_rejects_wrong_parameter_count(self, model):
        with pytest.raises(ValueError, match="parameters"):
            SharedParameterKernel(model, parameters=[np.zeros((1,))], block=4)

    def test_dropout_model_is_servable(self, rng):
        """Dropout is identity at inference, so a dropout-regularized model
        must compile — and a PoseServer must accept it for base traffic."""
        from repro.core import FuseConfig, FusePoseEstimator
        from repro.core.models import PoseCNNConfig
        from repro.serve import PoseServer, ServeConfig

        model = PoseCNN(PoseCNNConfig(dropout=0.3), seed=1)
        model.eval()
        kernel = SharedParameterKernel(model, block=4)
        features = rng.normal(size=(3, 5, 8, 8))
        np.testing.assert_allclose(
            kernel.predict(features), model.predict(features), rtol=1e-9, atol=1e-12
        )
        server = PoseServer(
            FusePoseEstimator(FuseConfig(), model=model), ServeConfig(max_batch_size=4)
        )
        assert server.submit("u", make_frame(rng)).shape == (19, 3)
