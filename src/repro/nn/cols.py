"""im2col/col2im lowering shared by the conv ops and their fused bodies.

These are the pure array-rearrangement primitives of the convolution path:
no arithmetic lives here, only the patch lowering.  They sit in their own
leaf module (rather than :mod:`repro.nn.ops`) so the fused forward/backward
bodies in :mod:`repro.nn.backend` can import them without a cycle — ``ops``
calls into ``backend``, and ``backend`` lowers with ``cols``.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = ["IntPair", "conv_output_shape", "im2col", "col2im"]

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
