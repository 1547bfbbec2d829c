"""Tests for the convolution primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.grad_check import check_gradients
from repro.nn.cols import col2im, conv_output_shape, im2col
from repro.nn.tensor import Tensor


class TestConvOutputShape:
    def test_basic(self):
        assert conv_output_shape(8, 8, 3, 1, 1) == (8, 8)

    def test_stride(self):
        assert conv_output_shape(8, 8, 2, 2, 0) == (4, 4)

    def test_rectangular(self):
        assert conv_output_shape(10, 6, (3, 5), (1, 1), (0, 0)) == (8, 2)

    def test_raises_on_empty_output(self):
        with pytest.raises(ValueError):
            conv_output_shape(2, 2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 1, 1)
        assert cols.shape == (2, 6, 6, 3 * 9)

    def test_known_values_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(x, 1, 1, 0)
        np.testing.assert_allclose(cols.reshape(4, 4), x[0, 0])

    def test_col2im_adjointness(self, rng):
        """col2im must be the adjoint (transpose) of im2col."""
        x = rng.normal(size=(1, 2, 5, 5))
        cols = im2col(x, 3, 1, 1)
        y = rng.normal(size=cols.shape)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * col2im(y, x.shape, 3, 1, 1))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_conv_via_im2col_matches_direct_computation(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        weight = rng.normal(size=(1, 1, 3, 3))
        out = nn.conv2d(Tensor(x), Tensor(weight), stride=1, padding=0).numpy()
        # Direct correlation for the single output position (1, 1).
        expected_00 = np.sum(x[0, 0, 0:3, 0:3] * weight[0, 0])
        assert out[0, 0, 0, 0] == pytest.approx(expected_00)


class TestConv2d:
    def test_output_shape_with_padding(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 8, 8)))
        w = Tensor(rng.normal(size=(16, 5, 3, 3)))
        out = nn.conv2d(x, w, padding=1)
        assert out.shape == (2, 16, 8, 8)

    def test_output_shape_with_stride(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 2, 2)))
        out = nn.conv2d(x, w, stride=2)
        assert out.shape == (1, 4, 4, 4)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = nn.conv2d(x, w, b, padding=1).numpy()
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def f(inputs):
            xx, ww, bb = inputs
            return (nn.conv2d(xx, ww, bb, stride=1, padding=1) ** 2).sum()

        check_gradients(f, [x, w, b], tolerance=1e-4)

    def test_gradients_with_stride_no_padding(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 2, 2)), requires_grad=True)

        def f(inputs):
            return nn.conv2d(inputs[0], inputs[1], stride=2).sum()

        check_gradients(f, [x, w], tolerance=1e-4)

    def test_rejects_wrong_input_rank(self, rng):
        with pytest.raises(ValueError):
            nn.conv2d(Tensor(rng.normal(size=(3, 4, 4))), Tensor(rng.normal(size=(1, 3, 3, 3))))

    def test_rejects_channel_mismatch(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor(rng.normal(size=(1, 3, 3, 3)))
        with pytest.raises(ValueError):
            nn.conv2d(x, w)
