"""The channels-last patch lowering against the NCHW reference, bit for bit.

Every convolution — :func:`repro.nn.conv2d`, the task-batched and low-rank
bodies, and the serving kernel's ``_ConvStep`` — lowers through
:func:`repro.nn.cols.patches_nhwc` and scatters its input gradient with
:func:`repro.nn.cols.col2im_nhwc`.  Both are pure data movement (the scatter
adds each pixel's taps in the reference's order), so they must equal the
public :func:`repro.nn.im2col` / :func:`repro.nn.col2im` pair exactly, with
the patch axis permuted from ``(C, kh, kw)`` to ``(kh, kw, C)``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, col2im, im2col
from repro.nn.cols import (
    col2im_nhwc,
    filters_nhwc,
    patches_nhwc,
    patches_to_nchw,
    patches_to_nhwc,
)
from repro.serve.kernel import _ConvStep

KERNELS = [(3, 3), (2, 3), (1, 1)]
STRIDES = [1, 2]
PADDINGS = [0, 1, 2]
#: rectangular inputs; C = 1, 5 (PoseCNN's input) and 16 (its conv2 input)
INPUTS = [(2, 1, 7, 5), (3, 5, 8, 6), (2, 16, 6, 9)]

GRID = [
    pytest.param(kernel, stride, padding, shape, id=f"k{kernel}-s{stride}-p{padding}-x{shape}")
    for kernel, stride, padding, shape in itertools.product(KERNELS, STRIDES, PADDINGS, INPUTS)
]


def _to_kh_kw_c(cols: np.ndarray, channels: int, kernel) -> np.ndarray:
    """Reference ``im2col`` output ``(..., C*kh*kw)`` -> ``(rows, kh*kw*C)``,
    permuted independently of the helpers under test."""
    kh, kw = kernel
    rows = cols.reshape(-1, channels, kh, kw).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(rows.reshape(-1, kh * kw * channels))


@pytest.mark.parametrize("kernel,stride,padding,shape", GRID)
def test_patches_nhwc_equals_permuted_im2col(rng, kernel, stride, padding, shape):
    x = rng.normal(size=shape)
    expected = _to_kh_kw_c(im2col(x, kernel, stride, padding), shape[1], kernel)
    got = patches_nhwc(x.transpose(0, 2, 3, 1), kernel, stride, padding)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("kernel,stride,padding,shape", GRID)
def test_col2im_nhwc_equals_col2im(rng, kernel, stride, padding, shape):
    batch, channels, height, width = shape
    reference_cols = rng.normal(size=im2col(np.zeros(shape), kernel, stride, padding).shape)
    expected = col2im(reference_cols, shape, kernel, stride, padding)
    got = col2im_nhwc(
        _to_kh_kw_c(reference_cols, channels, kernel),
        (batch, height, width, channels),
        kernel,
        stride,
        padding,
    )
    np.testing.assert_array_equal(got.transpose(0, 3, 1, 2), expected)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("channels", [1, 5, 16])
def test_patch_permutations(rng, kernel, channels):
    kh, kw = kernel
    array = rng.normal(size=(3, 2, channels * kh * kw))
    permuted = patches_to_nhwc(array, channels, kernel)
    np.testing.assert_array_equal(permuted, _to_kh_kw_c(array, channels, kernel).reshape(3, 2, -1))
    np.testing.assert_array_equal(patches_to_nchw(permuted, channels, kernel), array)
    weight = rng.normal(size=(4, 7, channels, kh, kw))
    np.testing.assert_array_equal(
        filters_nhwc(weight), patches_to_nhwc(weight.reshape(4, 7, -1), channels, kernel)
    )


class TestServingConvStep:
    """The serving kernel's conv step lowers through the shared helper; its
    patch matrix and GEMM output are the ones the public reference builds."""

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (1, 2)])
    def test_patches_and_product_match_reference(self, rng, stride, padding):
        layer = nn.Conv2d(5, 16, 3, stride=stride, padding=padding, rng=rng)
        weight, bias = rng.normal(size=(16, 5, 3, 3)), rng.normal(size=16)
        step = _ConvStep(layer, weight, bias)
        x = rng.normal(size=(4, 5, 8, 7))
        out, cols, block, out_h, out_w = step._base(
            np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        )
        expected_cols = _to_kh_kw_c(im2col(x, 3, stride, padding), 5, (3, 3))
        np.testing.assert_array_equal(cols, expected_cols)
        permuted_weight = np.ascontiguousarray(_to_kh_kw_c(weight.reshape(16, -1), 5, (3, 3)).T)
        expected_out = np.matmul(expected_cols, permuted_weight)
        expected_out += bias
        np.testing.assert_array_equal(out, expected_out)
        assert (block, out_h, out_w) == (4, *im2col(x, 3, stride, padding).shape[1:3])


def _read_only(rng, *shape) -> np.ndarray:
    array = rng.normal(size=shape)
    array.flags.writeable = False
    return array


class TestConvOpsNeverWriteInputs:
    """Forward and backward of every conv op run on read-only inputs."""

    def test_conv2d(self, rng):
        x = Tensor(_read_only(rng, 2, 3, 6, 5), requires_grad=True)
        weight = Tensor(_read_only(rng, 4, 3, 3, 3), requires_grad=True)
        bias = Tensor(_read_only(rng, 4), requires_grad=True)
        out = nn.conv2d(x, weight, bias, stride=1, padding=1)
        out.backward(rng.normal(size=out.shape))
        assert x.grad.shape == x.shape and weight.grad.shape == weight.shape

    def test_conv2d_lowrank_batched(self, rng):
        x = Tensor(_read_only(rng, 2, 2, 3, 6, 5), requires_grad=True)
        weight = Tensor(_read_only(rng, 4, 3, 3, 3), requires_grad=True)
        a = Tensor(_read_only(rng, 2, 2, 27), requires_grad=True)
        b = Tensor(_read_only(rng, 2, 4, 2), requires_grad=True)
        bias = Tensor(_read_only(rng, 4), requires_grad=True)
        out = nn.conv2d_lowrank_batched(x, weight, a, b, bias, stride=1, padding=1)
        out.backward(rng.normal(size=out.shape))
        assert a.grad.shape == a.shape and x.grad.shape == x.shape
