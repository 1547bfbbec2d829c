"""Tests for Module, layers and parameter management."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.grad_check import check_gradients
from repro.nn.tensor import Tensor

from .conftest import bits, composed_linear


def make_rng():
    return np.random.default_rng(7)


class TestModuleRegistration:
    def test_parameters_discovered_recursively(self):
        model = nn.Sequential(nn.Linear(4, 8, rng=make_rng()), nn.ReLU(), nn.Linear(8, 2, rng=make_rng()))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names
        assert "layer0.bias" in names
        assert "layer2.weight" in names
        assert len(model.parameters()) == 4

    def test_num_parameters(self):
        layer = nn.Linear(10, 5, rng=make_rng())
        assert layer.num_parameters() == 10 * 5 + 5

    def test_zero_grad_clears_all(self):
        model = nn.Linear(3, 2, rng=make_rng())
        out = model(Tensor(np.ones((4, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None
        assert model.bias.grad is None

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=make_rng()), nn.Dropout(0.5))
        model.eval()
        assert not model.training
        assert not model[1].training
        model.train()
        assert model[1].training

    def test_modules_iterator(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=make_rng()), nn.ReLU())
        assert len(list(model.modules())) == 3  # Sequential + 2 children

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            nn.Module().forward(Tensor([1.0]))


class TestStateDict:
    def test_roundtrip_restores_values(self):
        model = nn.Sequential(nn.Linear(4, 3, rng=make_rng()), nn.ReLU(), nn.Linear(3, 2, rng=make_rng()))
        state = model.state_dict()
        for param in model.parameters():
            param.data = param.data + 1.0
        model.load_state_dict(state)
        x = Tensor(np.ones((1, 4)))
        refreshed = model(x).numpy()
        model.load_state_dict(state)
        np.testing.assert_allclose(model(x).numpy(), refreshed)

    def test_state_dict_is_a_copy(self):
        model = nn.Linear(2, 2, rng=make_rng())
        state = model.state_dict()
        model.weight.data[:] = 0.0
        assert not np.allclose(state["weight"], 0.0)

    def test_missing_key_raises(self):
        model = nn.Linear(2, 2, rng=make_rng())
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 2))})

    def test_shape_mismatch_raises(self):
        model = nn.Linear(2, 2, rng=make_rng())
        bad = model.state_dict()
        bad["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_keys_are_exactly_the_parameter_names(self):
        model = nn.Sequential(nn.Conv2d(2, 3, 3, rng=make_rng()), nn.ReLU(), nn.Flatten())
        state = model.state_dict()
        params = dict(model.named_parameters())
        assert sorted(state) == sorted(params)
        for name, value in state.items():
            assert bits(value) == bits(params[name].data)

    def test_clone_is_independent(self):
        model = nn.Linear(3, 3, rng=make_rng())
        clone = model.clone()
        clone.weight.data[:] = 0.0
        assert not np.allclose(model.weight.data, 0.0)


class TestLinear:
    def test_forward_matches_manual(self):
        layer = nn.Linear(3, 2, rng=make_rng())
        x = np.random.default_rng(1).normal(size=(5, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    def test_no_bias(self):
        layer = nn.Linear(3, 2, bias=False, rng=make_rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients(self):
        layer = nn.Linear(4, 3, rng=make_rng())
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4)), requires_grad=True)

        def f(inputs):
            return (layer(inputs[0]) ** 2).sum()

        check_gradients(f, [x, layer.weight, layer.bias], tolerance=1e-4)

    def test_input_feature_mismatch_raises(self):
        layer = nn.Linear(4, 2, rng=make_rng())
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((2, 5))))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 2)


def assert_bits(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert actual.shape == expected.shape
    assert bits(actual) == bits(expected)


class TestFusedLinear:
    """``nn.linear``, the one op :class:`nn.Linear` runs, equals the composed
    ``x.matmul(weight.T) + bias`` bitwise: output and every gradient."""

    @staticmethod
    def leaves(rng, x_shape, out_features, use_bias, frozen):
        in_features = x_shape[-1]
        data = (
            rng.normal(size=x_shape),
            rng.normal(size=(out_features, in_features)),
            rng.normal(size=out_features),
        )

        def build():
            x = Tensor(data[0].copy(), requires_grad=frozen != "input")
            weight = nn.Parameter(data[1].copy())
            weight.requires_grad = frozen != "weight"
            bias = nn.Parameter(data[2].copy()) if use_bias else None
            return x, weight, bias

        return build(), build()

    @pytest.mark.parametrize(
        "x_shape, out_features",
        [((512,), 57), ((37, 512), 57), ((3, 11, 512), 57), ((2, 3, 5, 64), 9), ((128, 2048), 512)],
    )
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("frozen", ["nothing", "weight", "input"])
    def test_equals_composition_bitwise(self, x_shape, out_features, use_bias, frozen):
        rng = np.random.default_rng(len(x_shape) * 100 + out_features)
        fused_leaves, composed_leaves = self.leaves(rng, x_shape, out_features, use_bias, frozen)
        upstream = [rng.normal(size=x_shape[:-1] + (out_features,)) for _ in range(2)]
        # Two graphs per side, so the second backward accumulates into the
        # leaves' existing gradients.
        for grad in upstream:
            fused = nn.linear(*fused_leaves)
            composed = composed_linear(*composed_leaves)
            assert_bits(fused.data, composed.data)
            fused.backward(grad)
            composed.backward(grad)
        for fused_leaf, composed_leaf in zip(fused_leaves, composed_leaves):
            if composed_leaf is not None:
                assert_bits(fused_leaf.grad, composed_leaf.grad)
        weight = fused_leaves[1]
        if weight.requires_grad:
            assert weight.grad.flags.c_contiguous

    def test_no_grad_builds_no_graph(self):
        (x, weight, bias), (cx, cweight, cbias) = self.leaves(
            np.random.default_rng(4), (6, 16), 5, True, "nothing"
        )
        with nn.no_grad():
            fused = nn.linear(x, weight, bias)
            composed = composed_linear(cx, cweight, cbias)
        assert not fused.requires_grad
        assert fused._parents == ()
        assert_bits(fused.data, composed.data)

    def test_linear_layer_is_one_node(self):
        layer = nn.Linear(8, 3, rng=make_rng())
        x = Tensor(np.ones((2, 8)), requires_grad=True)
        out = layer(x)
        assert out._parents == (x, layer.weight, layer.bias)
        no_bias = nn.Linear(8, 3, bias=False, rng=make_rng())
        assert no_bias(x)._parents == (x, no_bias.weight)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            nn.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))))
        with pytest.raises(ValueError):
            nn.linear(Tensor(np.ones((2, 4))), Tensor(np.ones(4)))


class TestConv2dLayer:
    def test_forward_shape(self):
        layer = nn.Conv2d(5, 16, 3, padding=1, rng=make_rng())
        out = layer(Tensor(np.zeros((2, 5, 8, 8))))
        assert out.shape == (2, 16, 8, 8)

    def test_parameter_count(self):
        layer = nn.Conv2d(5, 16, 3, rng=make_rng())
        assert layer.num_parameters() == 16 * 5 * 9 + 16

    def test_invalid_channels_raise(self):
        with pytest.raises(ValueError):
            nn.Conv2d(0, 4, 3)

    def test_repr_mentions_geometry(self):
        text = repr(nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=make_rng()))
        assert "stride=2" in text


class TestActivationsAndFlatten:
    def test_relu_layer(self):
        assert np.all(nn.ReLU()(Tensor([-1.0, 2.0])).numpy() == [0.0, 2.0])

    def test_tanh_layer(self):
        np.testing.assert_allclose(nn.Tanh()(Tensor([0.0])).numpy(), [0.0])

    def test_sigmoid_layer(self):
        np.testing.assert_allclose(nn.Sigmoid()(Tensor([0.0])).numpy(), [0.5])

    def test_flatten_layer(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4, 5))))
        assert out.shape == (2, 60)


class TestDropout:
    def test_identity_in_eval_mode(self):
        layer = nn.Dropout(0.9, rng=make_rng())
        layer.eval()
        x = np.random.default_rng(3).normal(size=(10, 10))
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), x)

    def test_scales_surviving_activations(self):
        layer = nn.Dropout(0.5, rng=make_rng())
        x = np.ones((2000,))
        out = layer(Tensor(x)).numpy()
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        # Expectation preserved approximately.
        assert abs(out.mean() - 1.0) < 0.1

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestSequential:
    def test_runs_layers_in_order(self):
        model = nn.Sequential(nn.Linear(2, 3, rng=make_rng()), nn.ReLU(), nn.Linear(3, 1, rng=make_rng()))
        out = model(Tensor(np.ones((4, 2))))
        assert out.shape == (4, 1)

    def test_indexing_and_len(self):
        model = nn.Sequential(nn.ReLU(), nn.Flatten())
        assert len(model) == 2
        assert isinstance(model[0], nn.ReLU)

    def test_append(self):
        model = nn.Sequential(nn.ReLU())
        model.append(nn.Flatten())
        assert len(model) == 2

    def test_accepts_numpy_input(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=make_rng()))
        out = model(np.ones((1, 2)))
        assert isinstance(out, Tensor)
