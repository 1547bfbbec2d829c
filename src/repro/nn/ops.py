"""Convolution and pooling primitives for the ``repro.nn`` substrate.

The implementations use an im2col/col2im lowering so that the heavy lifting is
delegated to a single matrix multiplication per layer, which keeps CPU
training of the small MARS/FUSE CNNs practical.

Every convolution lowers channels-last (:mod:`repro.nn.cols`): the input is
viewed NHWC and its ``(kh, kw, C)`` patches gathered with one contiguous
copy, the filters are flattened in the same order, and the bias is added in
place on the ``(rows, out_channels)`` product.  A conv op returns the NCHW
view of that NHWC memory, and its input gradient is the NCHW view of
:func:`repro.nn.cols.col2im_nhwc`'s output, so the ops between two convs run
in one memory order.  Stored layouts stay NCHW: weights ``(O, C, kh, kw)``
and low-rank ``a`` factors in ``(C, kh, kw)`` patch order.  The pooling ops
lower through the NCHW reference :func:`im2col` / :func:`col2im`.
"""

from __future__ import annotations

import numpy as np

from . import backend as _backend
from .cols import (
    IntPair,
    _as_pair,
    col2im,
    col2im_nhwc,
    conv_output_shape,
    filters_nhwc,
    im2col,
    patches_nhwc,
    patches_to_nchw,
)
from .tensor import Tensor

__all__ = [
    "im2col",
    "col2im",
    "conv_output_shape",
    "conv2d",
    "conv2d_lowrank_batched",
    "max_pool2d",
    "avg_pool2d",
]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Differentiable 2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input tensor of shape ``(batch, in_channels, height, width)``.
    weight:
        Filter tensor of shape ``(out_channels, in_channels, kh, kw)``.
    bias:
        Optional tensor of shape ``(out_channels,)``.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D weight, got shape {weight.shape}")
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )

    batch, _, height, width = x.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), stride, padding)

    cols_flat = patches_nhwc(x.data.transpose(0, 2, 3, 1), (kh, kw), stride, padding)
    weight_flat = filters_nhwc(weight.data)

    out = cols_flat @ weight_flat.T  # (B*OH*OW, out_channels)
    if bias is not None:
        out += bias.data
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        # grad: (B, out_channels, OH, OW)
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        if weight.requires_grad:
            grad_weight = patches_to_nchw(grad_flat.T @ cols_flat, in_channels, (kh, kw))
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=0))
        if x.requires_grad:
            grad_cols = grad_flat @ weight_flat  # (B*OH*OW, kh*kw*C)
            grad_x = col2im_nhwc(
                grad_cols, (batch, height, width, in_channels), (kh, kw), stride, padding
            )
            x._accumulate_owned(grad_x.transpose(0, 3, 1, 2))

    return Tensor._make(out, parents, backward)


def conv2d_lowrank_batched(
    x: Tensor,
    weight: Tensor,
    a: Tensor,
    b: Tensor,
    bias: Tensor | None = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Grouped convolution with a *shared* filter bank and rank-r deltas.

    The effective per-task filters are ``weight + unflatten(b[t] @ a[t])``
    on the im2col-lowered ``(out_channels, patch)`` view of the weights
    (``patch = in_channels * kh * kw``).  Filter banks are small, so each
    call merges every task's bank, ``(tasks, out_channels, patch)`` values,
    and runs one GEMM per task against the task's own patch rows, forward
    and backward.  That GEMM's shape depends only on the task's own frame
    count, so a task's output does not depend on its peers.
    Only the factors carry gradients in the adaptation use case (the base
    weight and bias are frozen snapshots), so fine-tuning a task touches
    ``O(r * (patch + out_channels))`` parameters instead of the full bank.

    Parameters
    ----------
    x:
        Input tensor of shape ``(tasks, batch, in_channels, height, width)``.
    weight:
        Shared filter bank of shape ``(out_channels, in_channels, kh, kw)``
        — no task axis.
    a:
        Down-projection factors of shape ``(tasks, rank, patch)``, the patch
        in the weights' ``(C, kh, kw)`` order (the lowering permutes a copy
        per call).
    b:
        Up-projection factors of shape ``(tasks, out_channels, rank)``.
    bias:
        Optional shared bias of shape ``(out_channels,)``.

    Returns
    -------
    Tensor of shape ``(tasks, batch, out_channels, out_h, out_w)``.
    """
    if x.ndim != 5:
        raise ValueError(f"conv2d_lowrank_batched expects a 5-D input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(
            f"conv2d_lowrank_batched expects a shared 4-D weight, got shape {weight.shape}"
        )
    tasks, batch, in_channels, height, width = x.shape
    out_channels, w_in, kh, kw = weight.shape
    if w_in != in_channels:
        raise ValueError(f"input has {in_channels} channels but weight expects {w_in}")
    patch = in_channels * kh * kw
    if a.ndim != 3 or a.shape[0] != tasks or a.shape[2] != patch:
        raise ValueError(
            f"a must have shape ({tasks}, rank, {patch}), got {a.shape}"
        )
    rank = a.shape[1]
    if b.shape != (tasks, out_channels, rank):
        raise ValueError(f"b must have shape {(tasks, out_channels, rank)}, got {b.shape}")
    if bias is not None and bias.shape != (out_channels,):
        raise ValueError(f"bias must have shape ({out_channels},), got {bias.shape}")

    out, ctx = _backend.conv2d_lowrank_forward(
        x.data,
        weight.data,
        a.data,
        b.data,
        None if bias is None else bias.data,
        stride,
        padding,
    )

    parents = (x, weight, a, b) if bias is None else (x, weight, a, b, bias)

    def backward(grad: np.ndarray) -> None:
        grad_x, grad_weight, grad_a, grad_b, grad_bias = _backend.conv2d_lowrank_backward(
            ctx,
            grad,
            (
                x.requires_grad,
                weight.requires_grad,
                a.requires_grad,
                b.requires_grad,
                bias is not None and bias.requires_grad,
            ),
        )
        if grad_b is not None:
            b._accumulate_owned(grad_b)
        if grad_a is not None:
            a._accumulate_owned(grad_a)
        if grad_weight is not None:
            weight._accumulate(grad_weight)
        if grad_bias is not None:
            bias._accumulate(grad_bias)
        if grad_x is not None:
            x._accumulate_owned(grad_x)

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: IntPair | None = None) -> Tensor:
    """Differentiable 2-D max pooling."""
    if stride is None:
        stride = kernel_size
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    batch, channels, height, width = x.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), 0)

    cols = im2col(
        x.data.reshape(batch * channels, 1, height, width), (kh, kw), (sh, sw), 0
    )  # (B*C, OH, OW, kh*kw)
    flat = cols.reshape(batch * channels, out_h, out_w, kh * kw)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    out = out.reshape(batch, channels, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = np.zeros_like(flat)
        np.put_along_axis(
            grad_cols,
            argmax[..., None],
            grad.reshape(batch * channels, out_h, out_w, 1),
            axis=-1,
        )
        grad_x = col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            (kh, kw),
            (sh, sw),
            0,
        )
        x._accumulate(grad_x.reshape(batch, channels, height, width))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: IntPair | None = None) -> Tensor:
    """Differentiable 2-D average pooling."""
    if stride is None:
        stride = kernel_size
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    batch, channels, height, width = x.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), 0)

    cols = im2col(
        x.data.reshape(batch * channels, 1, height, width), (kh, kw), (sh, sw), 0
    )
    flat = cols.reshape(batch * channels, out_h, out_w, kh * kw)
    out = flat.mean(axis=-1).reshape(batch, channels, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = np.repeat(
            grad.reshape(batch * channels, out_h, out_w, 1) / (kh * kw), kh * kw, axis=-1
        )
        grad_x = col2im(
            grad_cols, (batch * channels, 1, height, width), (kh, kw), (sh, sw), 0
        )
        x._accumulate(grad_x.reshape(batch, channels, height, width))

    return Tensor._make(out, (x,), backward)
