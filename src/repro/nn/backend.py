"""Fused forward/backward bodies of the batched ``repro.nn`` hot-path ops.

The task-batched ops in :mod:`repro.nn.functional` and :mod:`repro.nn.ops`
(per-task linear and convolution, and their shared-base + rank-r variants)
validate their inputs, keep the autograd bookkeeping, and run their
arithmetic here on plain ``ndarray`` values.  Each forward function returns
``(out, ctx)``; the matching backward function takes that ``ctx``, the
upstream gradient and a ``needs`` tuple of booleans (one per differentiable
input, in signature order) and returns one gradient per input, ``None``
where it was not requested.

This is the only numeric path: every bitwise pin of the test suite
(batched == sequential, sharded == serial, grouped == solo) covers it.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from .cols import col2im, conv_output_shape, im2col

__all__ = [
    "active_backend_name",
    "linear_batched_forward",
    "linear_batched_backward",
    "linear_lowrank_forward",
    "linear_lowrank_backward",
    "conv2d_batched_forward",
    "conv2d_batched_backward",
    "conv2d_lowrank_forward",
    "conv2d_lowrank_backward",
]


def active_backend_name() -> str:
    """Name of the numeric path, as benchmark run contexts record it."""
    return "reference"


# ----------------------------------------------------------------------
# Per-task linear
# ----------------------------------------------------------------------
def linear_batched_forward(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
) -> Tuple[np.ndarray, Any]:
    """Per-task linear: ``(T,B,I) x (T,O,I) [+ (T,O)] -> (T,B,O)``."""
    out = np.matmul(x, weight.transpose(0, 2, 1))
    if bias is not None:
        out += bias[:, None, :]
    return out, (x, weight)


def linear_batched_backward(
    ctx: Any, grad: np.ndarray, needs: Tuple[bool, bool, bool]
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Gradients ``(gx, gweight, gbias)`` for :func:`linear_batched_forward`."""
    x, weight = ctx
    needs_x, needs_weight, needs_bias = needs
    grad_x = np.matmul(grad, weight) if needs_x else None
    grad_weight = np.matmul(grad.transpose(0, 2, 1), x) if needs_weight else None
    grad_bias = grad.sum(axis=1) if needs_bias else None
    return grad_x, grad_weight, grad_bias


# ----------------------------------------------------------------------
# Shared-base + low-rank linear
# ----------------------------------------------------------------------
def linear_lowrank_forward(
    x: np.ndarray,
    weight: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    bias: Optional[np.ndarray],
) -> Tuple[np.ndarray, Any]:
    """Shared-base + rank-r linear: ``(T,B,I) x (O,I) + factors -> (T,B,O)``."""
    # Base path: one shared matrix for every task (broadcast over the task
    # axis, each slice its own fixed-shape GEMM).  Low-rank path: two
    # rank-r products per task.
    hidden = np.matmul(x, a.transpose(0, 2, 1))  # (T, B, r)
    out = np.matmul(x, weight.T)
    out += np.matmul(hidden, b.transpose(0, 2, 1))
    if bias is not None:
        out += bias
    return out, (x, weight, a, b, hidden)


def linear_lowrank_backward(
    ctx: Any, grad: np.ndarray, needs: Tuple[bool, bool, bool, bool, bool]
) -> Tuple[Optional[np.ndarray], ...]:
    """Gradients ``(gx, gweight, ga, gb, gbias)``."""
    x, weight, a, b, hidden = ctx
    needs_x, needs_weight, needs_a, needs_b, needs_bias = needs
    grad_b = np.matmul(grad.transpose(0, 2, 1), hidden) if needs_b else None
    grad_hidden = None
    if needs_a or needs_x:
        grad_hidden = np.matmul(grad, b)  # (T, B, r)
    grad_a = np.matmul(grad_hidden.transpose(0, 2, 1), x) if needs_a else None
    grad_x = None
    if needs_x:
        grad_x = np.matmul(grad, weight)
        grad_x += np.matmul(grad_hidden, a)
    grad_weight = (
        np.einsum("tbo,tbi->oi", grad, x, optimize=True) if needs_weight else None
    )
    grad_bias = grad.sum(axis=(0, 1)) if needs_bias else None
    return grad_x, grad_weight, grad_a, grad_b, grad_bias


# ----------------------------------------------------------------------
# Per-task convolution
# ----------------------------------------------------------------------
def conv2d_batched_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride,
    padding,
) -> Tuple[np.ndarray, Any]:
    """Per-task conv: ``(T,B,C,H,W) x (T,O,C,kh,kw) -> (T,B,O,OH,OW)``."""
    tasks, batch, in_channels, height, width = x.shape
    _, out_channels, _, kh, kw = weight.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), stride, padding)
    patch = in_channels * kh * kw

    cols = im2col(
        x.reshape(tasks * batch, in_channels, height, width), (kh, kw), stride, padding
    )  # (T*B, OH, OW, patch)
    cols_flat = cols.reshape(tasks, batch * out_h * out_w, patch)
    weight_flat = weight.reshape(tasks, out_channels, patch)

    out = np.matmul(cols_flat, weight_flat.transpose(0, 2, 1))  # (T, B*OH*OW, O)
    out = out.reshape(tasks, batch, out_h, out_w, out_channels).transpose(0, 1, 4, 2, 3)
    if bias is not None:
        out = out + bias.reshape(tasks, 1, out_channels, 1, 1)
    ctx = (cols_flat, weight_flat, x.shape, weight.shape, (out_h, out_w), stride, padding)
    return out, ctx


def conv2d_batched_backward(
    ctx: Any, grad: np.ndarray, needs: Tuple[bool, bool, bool]
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Gradients ``(gx, gweight, gbias)`` for :func:`conv2d_batched_forward`."""
    cols_flat, weight_flat, x_shape, weight_shape, (out_h, out_w), stride, padding = ctx
    tasks, batch, in_channels, height, width = x_shape
    _, out_channels, _, kh, kw = weight_shape
    patch = in_channels * kh * kw
    needs_x, needs_weight, needs_bias = needs

    # grad: (T, B, O, OH, OW)
    grad_flat = grad.transpose(0, 1, 3, 4, 2).reshape(
        tasks, batch * out_h * out_w, out_channels
    )
    grad_weight = None
    if needs_weight:
        grad_weight = np.matmul(grad_flat.transpose(0, 2, 1), cols_flat).reshape(
            weight_shape
        )
    grad_bias = grad.sum(axis=(1, 3, 4)) if needs_bias else None
    grad_x = None
    if needs_x:
        grad_cols = np.matmul(grad_flat, weight_flat)  # (T, B*OH*OW, patch)
        grad_cols = grad_cols.reshape(tasks * batch, out_h, out_w, patch)
        grad_x = col2im(
            grad_cols,
            (tasks * batch, in_channels, height, width),
            (kh, kw),
            stride,
            padding,
        ).reshape(x_shape)
    return grad_x, grad_weight, grad_bias


# ----------------------------------------------------------------------
# Shared-base + low-rank convolution
# ----------------------------------------------------------------------
def conv2d_lowrank_forward(
    x: np.ndarray,
    weight: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    bias: Optional[np.ndarray],
    stride,
    padding,
) -> Tuple[np.ndarray, Any]:
    """Shared-base + rank-r conv: ``(T,B,C,H,W) x (O,C,kh,kw) + factors``."""
    tasks, batch, in_channels, height, width = x.shape
    out_channels, _, kh, kw = weight.shape
    patch = in_channels * kh * kw
    out_h, out_w = conv_output_shape(height, width, (kh, kw), stride, padding)
    rows = batch * out_h * out_w

    cols = im2col(
        x.reshape(tasks * batch, in_channels, height, width), (kh, kw), stride, padding
    )  # (T*B, OH, OW, patch)
    cols_flat = cols.reshape(tasks, rows, patch)
    weight_flat = weight.reshape(out_channels, patch)

    hidden = np.matmul(cols_flat, a.transpose(0, 2, 1))  # (T, rows, r)
    out = np.matmul(cols_flat, weight_flat.T)  # broadcast base: (T, rows, O)
    out += np.matmul(hidden, b.transpose(0, 2, 1))
    out = out.reshape(tasks, batch, out_h, out_w, out_channels).transpose(0, 1, 4, 2, 3)
    if bias is not None:
        out = out + bias.reshape(1, 1, out_channels, 1, 1)
    ctx = (
        cols_flat,
        weight_flat,
        a,
        b,
        hidden,
        x.shape,
        weight.shape,
        (out_h, out_w),
        stride,
        padding,
    )
    return out, ctx


def conv2d_lowrank_backward(
    ctx: Any, grad: np.ndarray, needs: Tuple[bool, bool, bool, bool, bool]
) -> Tuple[Optional[np.ndarray], ...]:
    """Gradients ``(gx, gweight, ga, gb, gbias)``."""
    (
        cols_flat,
        weight_flat,
        a,
        b,
        hidden,
        x_shape,
        weight_shape,
        (out_h, out_w),
        stride,
        padding,
    ) = ctx
    tasks, batch, in_channels, height, width = x_shape
    out_channels, _, kh, kw = weight_shape
    patch = in_channels * kh * kw
    rows = batch * out_h * out_w
    needs_x, needs_weight, needs_a, needs_b, needs_bias = needs

    # grad: (T, B, O, OH, OW)
    grad_flat = grad.transpose(0, 1, 3, 4, 2).reshape(tasks, rows, out_channels)
    grad_b = np.matmul(grad_flat.transpose(0, 2, 1), hidden) if needs_b else None
    grad_hidden = None
    if needs_a or needs_x:
        grad_hidden = np.matmul(grad_flat, b)  # (T, rows, r)
    grad_a = np.matmul(grad_hidden.transpose(0, 2, 1), cols_flat) if needs_a else None
    grad_weight = None
    if needs_weight:
        grad_weight = np.einsum(
            "tro,trp->op", grad_flat, cols_flat, optimize=True
        ).reshape(weight_shape)
    grad_bias = grad.sum(axis=(0, 1, 3, 4)) if needs_bias else None
    grad_x = None
    if needs_x:
        grad_cols = np.matmul(grad_flat, weight_flat)  # (T, rows, patch)
        grad_cols += np.matmul(grad_hidden, a)
        grad_cols = grad_cols.reshape(tasks * batch, out_h, out_w, patch)
        grad_x = col2im(
            grad_cols,
            (tasks * batch, in_channels, height, width),
            (kh, kw),
            stride,
            padding,
        ).reshape(x_shape)
    return grad_x, grad_weight, grad_a, grad_b, grad_bias
