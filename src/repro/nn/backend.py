"""Fused forward/backward bodies of the batched ``repro.nn`` hot-path ops.

The task-batched ops in :mod:`repro.nn.functional` and :mod:`repro.nn.ops`
(per-task linear and convolution, and their shared-base + rank-r variants)
validate their inputs, keep the autograd bookkeeping, and run their
arithmetic here on plain ``ndarray`` values.  Each forward function returns
``(out, ctx)``; the matching backward function takes that ``ctx``, the
upstream gradient and a ``needs`` tuple of booleans (one per differentiable
input, in signature order) and returns one gradient per input, ``None``
where it was not requested.

The low-rank linear bodies compute their shared-base products (``x @
weight.T`` and ``grad @ weight``) once over every task's rows, in GEMMs of
one fixed shape: :data:`FOLD_FRAMES` rows a block, the last block
zero-padded, whatever the number of tasks.  A row of a fixed-shape GEMM
depends only on its own input row (the batch-invariance rule
:mod:`repro.serve.kernel` rests on), so a task's rows come out bitwise the
same alone or in any cohort.  A plain fold over all rows would not keep
that: BLAS picks a different kernel, and different bits, as the row count
crosses its small-matrix thresholds.

The low-rank conv bodies do not fold: their filter banks are too small for a
shared product to save any packing.  Each task merges its factors into its
own bank, ``filters + b[t] @ a[t]``, and runs one GEMM over its own patch
rows, forward and backward.  That shape depends only on the task's own frame
count, so conv rows are grouping-invariant too.

The convolution bodies lower channels-last through :mod:`repro.nn.cols`,
as :func:`repro.nn.conv2d` and the serving kernel do: the patches of the
``(T,B,C,H,W)`` input's NHWC view in ``(kh, kw, C)`` order, the filters (per
task under ``conv2d_batched``) and the low-rank ``a`` factors permuted to
that order per call, and ``grad_a`` / ``grad_weight`` permuted back to the
stored ``(C, kh, kw)`` order.  The bias is added in place after the filter
product; the output and ``grad_x`` are NCHW views of NHWC memory.

This is the only numeric path: every bitwise pin of the test suite
(batched == sequential, sharded == serial, grouped == solo) covers it.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from .cols import (
    col2im_nhwc,
    conv_output_shape,
    filters_nhwc,
    patches_nhwc,
    patches_to_nchw,
    patches_to_nhwc,
)

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


#: Frames (rows) per block of the low-rank linear bodies' shared-base products.
FOLD_FRAMES = 32


def active_backend_name() -> str:
    """Name of the numeric path, as benchmark run contexts record it."""
    return "reference"


def _fold_product(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``rows @ weight`` over fixed-shape blocks of :data:`FOLD_FRAMES` rows.

    ``rows`` is ``(tasks, task_rows, k)`` with one row per frame; ``weight``
    is ``(k, n)``.  All tasks' rows are cut into blocks of ``FOLD_FRAMES``
    rows, and the blocks run as one ``np.matmul`` stack: the full blocks as a
    view, the tail zero-padded in the input's dtype.  Returns
    ``(tasks, task_rows, n)``.
    """
    tasks, task_rows, k = rows.shape
    n = weight.shape[1]
    flat = rows.reshape(tasks * task_rows, k)
    full, tail = divmod(flat.shape[0], FOLD_FRAMES)
    out = np.empty((full + (tail > 0), FOLD_FRAMES, n), dtype=np.result_type(flat, weight))
    if full:
        blocks = flat[: full * FOLD_FRAMES].reshape(full, FOLD_FRAMES, k)
        np.matmul(blocks, weight, out=out[:full])
    if tail:
        padded = np.zeros((1, FOLD_FRAMES, k), dtype=flat.dtype)
        padded[0, :tail] = flat[full * FOLD_FRAMES :]
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
    out = _fold_product(x, weight.T)
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
        grad_x = _fold_product(grad, weight)
        grad_x += np.matmul(grad_hidden, a)
    grad_weight = (
        np.einsum("tbo,tbi->oi", grad, x, optimize=True) if needs_weight else None
    )
    grad_bias = grad.sum(axis=(0, 1)) if needs_bias else None
    return grad_x, grad_weight, grad_a, grad_b, grad_bias


# ----------------------------------------------------------------------
# Per-task convolution
# ----------------------------------------------------------------------
def _patch_rows(x: np.ndarray, kernel_size, stride, padding) -> np.ndarray:
    """``(T,B,C,H,W)`` input -> ``(T, B*OH*OW, kh*kw*C)`` channels-last patches."""
    tasks, batch, in_channels, height, width = x.shape
    frames = x.reshape(tasks * batch, in_channels, height, width)
    cols = patches_nhwc(frames.transpose(0, 2, 3, 1), kernel_size, stride, padding)
    return cols.reshape(tasks, -1, cols.shape[1])


def _nchw(out: np.ndarray, batch: int, out_h: int, out_w: int) -> np.ndarray:
    """``(T, B*OH*OW, O)`` GEMM output -> its ``(T,B,O,OH,OW)`` view."""
    tasks, _, out_channels = out.shape
    return out.reshape(tasks, batch, out_h, out_w, out_channels).transpose(0, 1, 4, 2, 3)


def _grad_rows(grad: np.ndarray) -> np.ndarray:
    """``(T,B,O,OH,OW)`` upstream gradient -> ``(T, B*OH*OW, O)`` rows; a view
    when ``grad`` lies in the NHWC memory order the forward returned."""
    tasks, _, out_channels = grad.shape[:3]
    return grad.transpose(0, 1, 3, 4, 2).reshape(tasks, -1, out_channels)


def _grad_input(grad_cols: np.ndarray, x_shape, kernel_size, stride, padding) -> np.ndarray:
    """``(T, B*OH*OW, kh*kw*C)`` column gradient -> ``(T,B,C,H,W)`` NCHW view
    of the NHWC input gradient."""
    tasks, batch, in_channels, height, width = x_shape
    image = col2im_nhwc(
        grad_cols, (tasks * batch, height, width, in_channels), kernel_size, stride, padding
    )
    return image.reshape(tasks, batch, height, width, in_channels).transpose(0, 1, 4, 2, 3)


def conv2d_batched_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride,
    padding,
) -> Tuple[np.ndarray, Any]:
    """Per-task conv: ``(T,B,C,H,W) x (T,O,C,kh,kw) -> (T,B,O,OH,OW)``."""
    _, batch, _, height, width = x.shape
    kh, kw = weight.shape[-2:]
    out_h, out_w = conv_output_shape(height, width, (kh, kw), stride, padding)

    cols_flat = _patch_rows(x, (kh, kw), stride, padding)  # (T, B*OH*OW, patch)
    weight_flat = filters_nhwc(weight)  # (T, O, patch)

    out = np.matmul(cols_flat, weight_flat.transpose(0, 2, 1))  # (T, B*OH*OW, O)
    if bias is not None:
        out += bias[:, None, :]
    ctx = (cols_flat, weight_flat, x.shape, weight.shape, stride, padding)
    return _nchw(out, batch, out_h, out_w), ctx


def conv2d_batched_backward(
    ctx: Any, grad: np.ndarray, needs: Tuple[bool, bool, bool]
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Gradients ``(gx, gweight, gbias)`` for :func:`conv2d_batched_forward`."""
    cols_flat, weight_flat, x_shape, weight_shape, stride, padding = ctx
    in_channels, kh, kw = weight_shape[2:]
    needs_x, needs_weight, needs_bias = needs

    grad_flat = _grad_rows(grad)  # (T, B*OH*OW, O)
    grad_weight = None
    if needs_weight:
        grad_weight = patches_to_nchw(
            np.matmul(grad_flat.transpose(0, 2, 1), cols_flat), in_channels, (kh, kw)
        ).reshape(weight_shape)
    grad_bias = grad_flat.sum(axis=1) if needs_bias else None
    grad_x = None
    if needs_x:
        grad_cols = np.matmul(grad_flat, weight_flat)  # (T, B*OH*OW, patch)
        grad_x = _grad_input(grad_cols, x_shape, (kh, kw), stride, padding)
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
    """Shared-base + rank-r conv: ``(T,B,C,H,W) x (O,C,kh,kw) + factors``.

    ``a`` arrives in the stored ``(C, kh, kw)`` patch order and is permuted
    to the lowering's ``(kh, kw, C)`` order here, as the base weight is.
    """
    _, batch, in_channels, height, width = x.shape
    kh, kw = weight.shape[-2:]
    out_h, out_w = conv_output_shape(height, width, (kh, kw), stride, padding)

    cols_flat = _patch_rows(x, (kh, kw), stride, padding)  # (T, rows, patch)
    a_flat = patches_to_nhwc(a, in_channels, (kh, kw))
    merged = filters_nhwc(weight) + np.matmul(b, a_flat)  # (T, O, patch)

    hidden = np.matmul(cols_flat, a_flat.transpose(0, 2, 1))  # (T, rows, r)
    out = np.matmul(cols_flat, merged.transpose(0, 2, 1))  # (T, rows, O)
    if bias is not None:
        out += bias
    ctx = (cols_flat, merged, b, hidden, x.shape, weight.shape, stride, padding)
    return _nchw(out, batch, out_h, out_w), ctx


def conv2d_lowrank_backward(
    ctx: Any, grad: np.ndarray, needs: Tuple[bool, bool, bool, bool, bool]
) -> Tuple[Optional[np.ndarray], ...]:
    """Gradients ``(gx, gweight, ga, gb, gbias)``; ``ga`` in the stored order."""
    cols_flat, merged, b, hidden, x_shape, weight_shape, stride, padding = ctx
    in_channels, kh, kw = weight_shape[1:]
    needs_x, needs_weight, needs_a, needs_b, needs_bias = needs

    grad_flat = _grad_rows(grad)  # (T, rows, O)
    grad_b = np.matmul(grad_flat.transpose(0, 2, 1), hidden) if needs_b else None
    grad_a = None
    if needs_a:
        grad_hidden = np.matmul(grad_flat, b)  # (T, rows, r)
        grad_a = patches_to_nchw(
            np.matmul(grad_hidden.transpose(0, 2, 1), cols_flat), in_channels, (kh, kw)
        )
    grad_weight = None
    if needs_weight:
        grad_weight = patches_to_nchw(
            np.einsum("tro,trp->op", grad_flat, cols_flat, optimize=True), in_channels, (kh, kw)
        ).reshape(weight_shape)
    grad_bias = grad_flat.sum(axis=(0, 1)) if needs_bias else None
    grad_x = None
    if needs_x:
        grad_cols = np.matmul(grad_flat, merged)  # (T, rows, patch)
        grad_x = _grad_input(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_a, grad_b, grad_bias
