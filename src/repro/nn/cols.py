"""Patch lowering shared by the conv ops, their fused bodies and the serving kernel.

These are the array-rearrangement primitives of the convolution path: no
arithmetic lives here beyond the col2im scatter-adds, only the patch
lowering.  They sit in their own leaf module (rather than
:mod:`repro.nn.ops`) so the fused forward/backward bodies in
:mod:`repro.nn.backend` and the serving kernel (:mod:`repro.serve.kernel`)
can import them without a cycle — ``ops`` calls into ``backend``, and
``backend`` lowers with ``cols``.

Every convolution lowers channels-last.  :func:`patches_nhwc` gathers an
NHWC input's ``(kh, kw, C)`` patches into one ``(rows, kh * kw * C)`` matrix
with a single copy of a strided window view, so each window row is one
contiguous run of channels; :func:`col2im_nhwc` is its adjoint, scattering a
column gradient back tap by tap.  :func:`patches_to_nhwc` and
:func:`patches_to_nchw` move a flattened patch axis between that order and
the ``(C, kh, kw)`` order conv weights and low-rank factors are stored in;
:func:`filters_nhwc` flattens a filter bank into the lowering's order.
The NCHW :func:`im2col` / :func:`col2im` pair is the public reference the
NHWC helpers are pinned against.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = [
    "IntPair",
    "conv_output_shape",
    "im2col",
    "col2im",
    "patches_nhwc",
    "col2im_nhwc",
    "patches_to_nhwc",
    "patches_to_nchw",
    "filters_nhwc",
]

IntPair = Union[int, Tuple[int, int]]


def _as_pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_shape(
    height: int, width: int, kernel_size: IntPair, stride: IntPair, padding: IntPair
) -> Tuple[int, int]:
    """Spatial output shape of a 2-D convolution/pooling operation."""
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty for input {(height, width)}, "
            f"kernel {kernel_size}, stride {stride}, padding {padding}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray, kernel_size: IntPair, stride: IntPair = 1, padding: IntPair = 0
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(batch, channels, height, width)``.

    Returns
    -------
    Array of shape ``(batch, out_h, out_w, channels * kh * kw)``.
    """
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    batch, channels, height, width = x.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))

    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    strides = padded.strides
    window_view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * sh,
            strides[3] * sw,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    # (batch, out_h, out_w, channels, kh, kw) -> flatten the patch dims.
    cols = window_view.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * kh * kw
    )
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    batch, channels, height, width = input_shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))

    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + height, pw : pw + width]


def patches_nhwc(
    x: np.ndarray, kernel_size: IntPair, stride: IntPair = 1, padding: IntPair = 0
) -> np.ndarray:
    """Channels-last im2col: the ``(kh, kw, C)`` patch of every output pixel.

    ``x`` is ``(batch, height, width, channels)``; it may be a view (the
    conv ops pass ``x.transpose(0, 2, 3, 1)`` of their NCHW input).  A padded
    input is copied once into a zero-padded NHWC buffer.  Returns the
    ``(batch * out_h * out_w, kh * kw * channels)`` patch matrix, one copy of
    a strided window view; over a contiguous input each ``(kw, C)`` window
    row is a single run.
    """
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    batch, height, width, channels = x.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))
    if ph or pw:
        padded = np.zeros((batch, height + 2 * ph, width + 2 * pw, channels), x.dtype)
        padded[:, ph : ph + height, pw : pw + width] = x
        x = padded
    step_b, step_h, step_w, step_c = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kh, kw, channels),
        strides=(step_b, step_h * sh, step_w * sw, step_h, step_w, step_c),
        writeable=False,
    )
    return windows.reshape(batch * out_h * out_w, kh * kw * channels)


def _tap_span(tap: int, pad: int, stride: int, out_size: int, size: int) -> Tuple[int, int, int]:
    """Output positions ``[first, stop)`` whose ``tap`` lands inside the image,
    and the image position the first one lands on."""
    first = max(0, -((tap - pad) // stride))
    stop = min(out_size, (size - 1 + pad - tap) // stride + 1)
    return first, stop, first * stride + tap - pad


def col2im_nhwc(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> np.ndarray:
    """Adjoint of :func:`patches_nhwc`: scatter-add columns into an NHWC image.

    ``cols`` holds ``batch * out_h * out_w`` rows of ``(kh, kw, C)`` patches;
    ``input_shape`` is ``(batch, height, width, channels)``.  Each tap's
    ``(batch, out_h, out_w, C)`` block is read in place through a strided
    view (every pixel's ``C`` values are one contiguous run) and accumulates
    straight into the unpadded gradient, clipped to the image.  Taps run in
    :func:`col2im`'s ``(i, j)`` order, so every pixel sums the same terms in
    the same order and the result is bitwise :func:`col2im`'s, transposed.
    """
    kh, kw = _as_pair(kernel_size)
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    batch, height, width, channels = input_shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))

    taps = cols.reshape(batch, out_h, out_w, kh, kw, channels)
    image = np.zeros(input_shape, dtype=cols.dtype)
    for i in range(kh):
        first_h, stop_h, top = _tap_span(i, ph, sh, out_h, height)
        if stop_h <= first_h:
            continue
        rows = slice(top, top + sh * (stop_h - first_h), sh)
        for j in range(kw):
            first_w, stop_w, left = _tap_span(j, pw, sw, out_w, width)
            if stop_w <= first_w:
                continue
            image[:, rows, left : left + sw * (stop_w - first_w) : sw] += taps[
                :, first_h:stop_h, first_w:stop_w, i, j
            ]
    return image


def patches_to_nhwc(array: np.ndarray, channels: int, kernel_size: IntPair) -> np.ndarray:
    """Reorder a trailing patch axis from ``(C, kh, kw)`` to ``(kh, kw, C)``.

    ``array`` is ``(..., channels * kh * kw)`` — flattened conv filters or
    low-rank ``a`` factors in their stored order; the result has the same
    shape, in :func:`patches_nhwc`'s order.
    """
    kh, kw = _as_pair(kernel_size)
    lead = array.shape[:-1]
    return np.moveaxis(array.reshape(*lead, channels, kh, kw), -3, -1).reshape(*lead, -1)


def patches_to_nchw(array: np.ndarray, channels: int, kernel_size: IntPair) -> np.ndarray:
    """Inverse of :func:`patches_to_nhwc`: ``(kh, kw, C)`` back to ``(C, kh, kw)``."""
    kh, kw = _as_pair(kernel_size)
    lead = array.shape[:-1]
    return np.moveaxis(array.reshape(*lead, kh, kw, channels), -1, -3).reshape(*lead, -1)


def filters_nhwc(weight: np.ndarray) -> np.ndarray:
    """Conv filters ``(..., O, C, kh, kw)`` as ``(..., O, kh * kw * C)`` rows.

    The rows are in :func:`patches_nhwc`'s patch order, so ``patches @
    filters_nhwc(weight).T`` is the convolution.  Every conv op and the
    serving kernel flatten their filters through this one function.
    """
    *lead, out_channels, channels, kh, kw = weight.shape
    return patches_to_nhwc(weight.reshape(*lead, out_channels, -1), channels, (kh, kw))
