"""Fused forward/backward bodies of the batched ``repro.nn`` hot-path ops.

The task-batched ops in :mod:`repro.nn.functional` and :mod:`repro.nn.ops`
(per-task linear and convolution, and their shared-base + rank-r variants)
validate their inputs, keep the autograd bookkeeping, and run their
arithmetic here on plain ``ndarray`` values.  Each forward function returns
``(out, ctx)``; the matching backward function takes that ``ctx``, the
upstream gradient and a ``needs`` tuple of booleans (one per differentiable
input, in signature order) and returns one gradient per input, ``None``
where it was not requested.

The shared-base products of the four low-rank bodies (``x @ weight.T`` and
``grad @ weight`` for linear layers, their im2col counterparts for
convolutions) run once over every task's rows, not once per task.  The rows
go through GEMMs of one fixed shape, :data:`FOLD_FRAMES` frames per block
(the last block zero-padded), whatever the number of tasks.  A task's rows
therefore come out bitwise the same alone or in any cohort: a row of a
fixed-shape GEMM depends only on its own input row, the same batch-invariance
rule :mod:`repro.serve.kernel` rests on.  A plain fold over all rows would not
keep it, because BLAS picks a different kernel, and different bits, as the
row count crosses its small-matrix thresholds.

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


#: Frames per block of the low-rank bodies' shared-base products.
FOLD_FRAMES = 16


def active_backend_name() -> str:
    """Name of the numeric path, as benchmark run contexts record it."""
    return "reference"


def _fold_product(rows: np.ndarray, weight: np.ndarray, frame_rows: int) -> np.ndarray:
    """``rows @ weight`` over fixed-shape blocks of :data:`FOLD_FRAMES` frames.

    ``rows`` is ``(tasks, task_rows, k)`` with ``frame_rows`` consecutive rows
    per frame; ``weight`` is ``(k, n)``.  All tasks' rows are cut into blocks
    of ``FOLD_FRAMES * frame_rows`` rows, and the blocks run as one
    ``np.matmul`` stack: the full blocks as a view, the tail zero-padded in
    the input's dtype.  Returns ``(tasks, task_rows, n)``.
    """
    tasks, task_rows, k = rows.shape
    n = weight.shape[1]
    flat = rows.reshape(tasks * task_rows, k)
    height = FOLD_FRAMES * frame_rows
    full, tail = divmod(flat.shape[0], height)
    out = np.empty((full + (tail > 0), height, n), dtype=np.result_type(flat, weight))
    if full:
        np.matmul(flat[: full * height].reshape(full, height, k), weight, out=out[:full])
    if tail:
        padded = np.zeros((1, height, k), dtype=flat.dtype)
        padded[0, :tail] = flat[full * height :]
        np.matmul(padded, weight, out=out[full:])
    return out.reshape(-1, n)[: flat.shape[0]].reshape(tasks, task_rows, n)


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
    # Base path: one shared matrix, folded over every task's frames in
    # fixed-shape blocks.  Low-rank path: two rank-r products per task.
    hidden = np.matmul(x, a.transpose(0, 2, 1))  # (T, B, r)
    out = _fold_product(x, weight.T, 1)
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
        grad_x = _fold_product(grad, weight, 1)
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
    out = _fold_product(cols_flat, weight_flat.T, out_h * out_w)  # (T, rows, O)
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
        grad_cols = _fold_product(grad_flat, weight_flat, out_h * out_w)  # (T, rows, patch)
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
