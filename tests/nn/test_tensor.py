"""Tests for the autograd Tensor: forward values and backward correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.grad_check import check_gradients
from repro.nn.tensor import Tensor, _unbroadcast


def _t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=float), requires_grad=requires_grad)


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64
        assert not t.requires_grad

    def test_construction_from_tensor_shares_data(self):
        base = Tensor([1.0, 2.0])
        other = Tensor(base)
        assert np.array_equal(other.data, base.data)

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_detach_breaks_graph(self):
        x = _t([1.0, 2.0])
        y = (x * 2).detach()
        assert not y.requires_grad
        assert y._parents == ()

    def test_copy_is_independent(self):
        x = _t([1.0, 2.0])
        y = x.copy()
        y.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_zero_grad_clears_gradient(self):
        x = _t([1.0, 2.0])
        (x * 3).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_without_grad_argument(self):
        x = _t([[1.0, 2.0]])
        y = x * 2
        with pytest.raises(ValueError):
            y.backward()

    def test_backward_with_explicit_gradient(self):
        x = _t([1.0, 2.0, 3.0])
        y = x * 2
        y.backward(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


class TestGradientAccumulation:
    def test_gradient_accumulates_over_multiple_uses(self):
        x = _t([2.0])
        y = x * 3 + x * 4  # dy/dx = 7
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = _t([1.5])
        a = x * 2
        b = x * 3
        y = (a * b).sum()  # y = 6 x^2, dy/dx = 12 x
        y.backward()
        np.testing.assert_allclose(x.grad, [12 * 1.5])

    def test_two_backward_calls_accumulate(self):
        x = _t([1.0])
        y = (x * 5).sum()
        y.backward()
        y2 = (x * 5).sum()
        y2.backward()
        np.testing.assert_allclose(x.grad, [10.0])

    def test_shared_intermediate_sends_only_the_new_gradient(self):
        """A non-leaf's gradient from an earlier backward is not re-sent:
        d(sum y)/dx = 2 and d(sum 3y)/dx = 6 add up to 8, not 10."""
        x = _t(np.ones(3))
        y = x * 2
        y.sum().backward()
        (y * 3).sum().backward()
        np.testing.assert_array_equal(x.grad, [8.0, 8.0, 8.0])
        assert y.grad is None

    def test_backward_twice_on_one_root_adds_one_gradient_each(self):
        x = _t(np.ones(3))
        root = (x * 2).sum()
        root.backward()
        root.backward()
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
        assert root.grad is None

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = _t([1.0])
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = _t([1.0])
        with nn.no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_nested_no_grad(self):
        with nn.no_grad():
            with nn.no_grad():
                pass
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()


class TestUnbroadcast:
    def test_same_shape_passthrough(self):
        grad = np.ones((2, 3))
        assert _unbroadcast(grad, (2, 3)).shape == (2, 3)

    def test_sums_leading_dimensions(self):
        grad = np.ones((4, 2, 3))
        out = _unbroadcast(grad, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_size_one_axes(self):
        grad = np.ones((2, 3))
        out = _unbroadcast(grad, (1, 3))
        np.testing.assert_allclose(out, np.full((1, 3), 2.0))


class TestArithmeticGradients:
    """Finite-difference checks for every elementwise operation."""

    def test_add(self, rng):
        a = _t(rng.normal(size=(3, 4)))
        b = _t(rng.normal(size=(3, 4)))
        check_gradients(lambda inp: (inp[0] + inp[1]).sum(), [a, b])

    def test_add_broadcast(self, rng):
        a = _t(rng.normal(size=(3, 4)))
        b = _t(rng.normal(size=(4,)))
        check_gradients(lambda inp: (inp[0] + inp[1]).sum(), [a, b])

    def test_radd_with_scalar(self):
        x = _t([1.0, 2.0])
        y = (5.0 + x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_sub(self, rng):
        a = _t(rng.normal(size=(2, 3)))
        b = _t(rng.normal(size=(2, 3)))
        check_gradients(lambda inp: (inp[0] - inp[1]).sum(), [a, b])

    def test_rsub(self):
        x = _t([2.0])
        y = (10.0 - x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [-1.0])

    def test_mul(self, rng):
        a = _t(rng.normal(size=(3, 2)))
        b = _t(rng.normal(size=(3, 2)))
        check_gradients(lambda inp: (inp[0] * inp[1]).sum(), [a, b])

    def test_mul_broadcast(self, rng):
        a = _t(rng.normal(size=(3, 2)))
        b = _t(rng.normal(size=(1, 2)))
        check_gradients(lambda inp: (inp[0] * inp[1]).sum(), [a, b])

    def test_div(self, rng):
        a = _t(rng.normal(size=(2, 2)))
        b = _t(rng.uniform(1.0, 2.0, size=(2, 2)))
        check_gradients(lambda inp: (inp[0] / inp[1]).sum(), [a, b])

    def test_rtruediv(self):
        x = _t([2.0])
        y = (4.0 / x).sum()  # d/dx 4/x = -4/x^2 = -1
        y.backward()
        np.testing.assert_allclose(x.grad, [-1.0])

    def test_neg(self, rng):
        a = _t(rng.normal(size=(5,)))
        check_gradients(lambda inp: (-inp[0]).sum(), [a])

    def test_pow(self, rng):
        a = _t(rng.uniform(0.5, 2.0, size=(4,)))
        check_gradients(lambda inp: (inp[0] ** 3).sum(), [a])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            _t([1.0]) ** _t([2.0])  # type: ignore[operator]

    def test_sqrt(self, rng):
        a = _t(rng.uniform(0.5, 2.0, size=(4,)))
        check_gradients(lambda inp: inp[0].sqrt().sum(), [a])


class TestMatmulGradients:
    def test_matrix_matrix(self, rng):
        a = _t(rng.normal(size=(3, 4)))
        b = _t(rng.normal(size=(4, 2)))
        check_gradients(lambda inp: inp[0].matmul(inp[1]).sum(), [a, b])

    def test_vector_vector(self, rng):
        a = _t(rng.normal(size=(5,)))
        b = _t(rng.normal(size=(5,)))
        check_gradients(lambda inp: inp[0].matmul(inp[1]).sum(), [a, b])

    def test_matrix_vector(self, rng):
        a = _t(rng.normal(size=(3, 4)))
        b = _t(rng.normal(size=(4,)))
        check_gradients(lambda inp: inp[0].matmul(inp[1]).sum(), [a, b])

    def test_vector_matrix(self, rng):
        a = _t(rng.normal(size=(3,)))
        b = _t(rng.normal(size=(3, 2)))
        check_gradients(lambda inp: inp[0].matmul(inp[1]).sum(), [a, b])

    def test_operator_form(self, rng):
        a = _t(rng.normal(size=(2, 3)))
        b = _t(rng.normal(size=(3, 2)))
        value = (a @ b).sum()
        expected = (a.data @ b.data).sum()
        assert value.item() == pytest.approx(expected)


class TestShapeOps:
    def test_reshape_gradient(self, rng):
        a = _t(rng.normal(size=(2, 6)))
        check_gradients(lambda inp: (inp[0].reshape(3, 4) * 2).sum(), [a])

    def test_reshape_accepts_tuple(self):
        a = _t(np.arange(6.0))
        assert a.reshape((2, 3)).shape == (2, 3)

    def test_flatten(self, rng):
        a = _t(rng.normal(size=(2, 3, 4)))
        flat = a.flatten(start_dim=1)
        assert flat.shape == (2, 12)
        check_gradients(lambda inp: inp[0].flatten(start_dim=1).sum(), [a])

    def test_transpose_default(self, rng):
        a = _t(rng.normal(size=(2, 5)))
        assert a.T.shape == (5, 2)
        check_gradients(lambda inp: (inp[0].T * 3).sum(), [a])

    def test_transpose_axes(self, rng):
        a = _t(rng.normal(size=(2, 3, 4)))
        out = a.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        check_gradients(lambda inp: (inp[0].transpose(2, 0, 1) * 2).sum(), [a])

    def test_getitem_gradient(self, rng):
        a = _t(rng.normal(size=(4, 3)))
        check_gradients(lambda inp: inp[0][1:3].sum(), [a])

    def test_getitem_with_fancy_indexing_accumulates(self):
        a = _t(np.ones((3,)))
        picked = a[np.array([0, 0, 2])]
        picked.sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0])

    def test_pad_gradient(self, rng):
        a = _t(rng.normal(size=(2, 3)))
        out = a.pad(((1, 1), (0, 2)))
        assert out.shape == (4, 5)
        check_gradients(lambda inp: inp[0].pad(((1, 1), (0, 2))).sum(), [a])


class TestReductions:
    def test_sum_all(self, rng):
        a = _t(rng.normal(size=(3, 4)))
        check_gradients(lambda inp: inp[0].sum(), [a])

    def test_sum_axis_keepdims(self, rng):
        a = _t(rng.normal(size=(3, 4)))
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        check_gradients(lambda inp: (inp[0].sum(axis=1, keepdims=True) * 2).sum(), [a])

    def test_sum_multiple_axes(self, rng):
        a = _t(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda inp: (inp[0].sum(axis=(0, 2)) ** 2).sum(), [a])

    def test_mean_value(self):
        a = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]))
        assert a.mean().item() == pytest.approx(4.0)

    def test_mean_gradient(self, rng):
        a = _t(rng.normal(size=(4, 5)))
        check_gradients(lambda inp: (inp[0].mean(axis=0) ** 2).sum(), [a])

    def test_max_value_and_gradient(self):
        a = _t([[1.0, 5.0], [3.0, 2.0]])
        out = a.max()
        assert out.item() == 5.0
        out.backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_max_axis(self, rng):
        data = rng.normal(size=(3, 4))
        a = Tensor(data)
        np.testing.assert_allclose(a.max(axis=1).numpy(), data.max(axis=1))

    def test_min_is_negated_max(self):
        a = Tensor([[4.0, -2.0, 7.0]])
        assert a.min().item() == pytest.approx(-2.0)


class TestNonlinearities:
    def test_relu_forward_and_grad(self):
        a = _t([-1.0, 0.5, 2.0])
        out = a.relu()
        np.testing.assert_allclose(out.numpy(), [0.0, 0.5, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])

    def test_exp(self, rng):
        a = _t(rng.normal(size=(3,)))
        check_gradients(lambda inp: inp[0].exp().sum(), [a])

    def test_log(self, rng):
        a = _t(rng.uniform(0.5, 3.0, size=(3,)))
        check_gradients(lambda inp: inp[0].log().sum(), [a])

    def test_abs(self, rng):
        a = _t(rng.normal(size=(4,)) + 0.5)  # keep away from the kink
        check_gradients(lambda inp: inp[0].abs().sum(), [a])

    def test_tanh(self, rng):
        a = _t(rng.normal(size=(4,)))
        check_gradients(lambda inp: inp[0].tanh().sum(), [a])

    def test_sigmoid_range(self, rng):
        a = Tensor(rng.normal(size=(100,)) * 5)
        out = a.sigmoid().numpy()
        assert np.all(out > 0) and np.all(out < 1)

    def test_sigmoid_gradient(self, rng):
        a = _t(rng.normal(size=(4,)))
        check_gradients(lambda inp: inp[0].sigmoid().sum(), [a])

    def test_clip_gradient_masks_out_of_range(self):
        a = _t([-2.0, 0.5, 3.0])
        out = a.clip(0.0, 1.0)
        np.testing.assert_allclose(out.numpy(), [0.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestCombinators:
    def test_concatenate_values(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((1, 2)))
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (3, 2)

    def test_concatenate_gradient(self, rng):
        a = _t(rng.normal(size=(2, 3)))
        b = _t(rng.normal(size=(4, 3)))
        check_gradients(lambda inp: (Tensor.concatenate([inp[0], inp[1]], axis=0) ** 2).sum(), [a, b])

    def test_stack_gradient(self, rng):
        a = _t(rng.normal(size=(2, 3)))
        b = _t(rng.normal(size=(2, 3)))
        check_gradients(lambda inp: (Tensor.stack([inp[0], inp[1]], axis=0) * 2).sum(), [a, b])

    def test_stack_shape(self):
        a = Tensor(np.zeros((4,)))
        b = Tensor(np.ones((4,)))
        assert Tensor.stack([a, b], axis=1).shape == (4, 2)
