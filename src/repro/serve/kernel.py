"""Batch-invariant shared-parameter inference kernel.

Micro-batching is only correct if coalescing requests cannot change their
answers.  Plain ``model.predict`` does not guarantee that: BLAS picks
different kernels for different GEMM shapes (a one-row matrix product goes
through ``gemv``, a many-row one through blocked ``gemm``), so the same frame
served alone and served inside a batch can differ in the last bits.

:class:`SharedParameterKernel` removes the batch size from every GEMM shape.
Frames are processed in fixed-width blocks of exactly ``block`` frames (the
last block is zero-padded):

* convolutions run as one ``im2col`` matrix product whose row count is
  ``block * out_h * out_w`` — constant;
* fully connected layers run transposed, ``weight @ x.T``, so the batch
  dimension is the GEMM's *column* count, again padded to ``block``.

Because the GEMM shapes never change, a frame's prediction depends only on
its own features and its slot in the block — not on how many co-riders
shared the block or what they and the padding contained.  Whether the slot
matters is a property of the BLAS at that width: a fully connected step's
columns come out slot-independent only when the library computes every
column of the ``(out, block)`` product with the same kernel.  On OpenBLAS
0.3.31, with one or two threads, PoseCNN's predictions were slot-invariant
at widths 2, 4, 8, 16, 32 and 64 (every shipped width) and were not at 5, 6
or 7, where fc2's columns (``W(57, 512) @ x.T``) depend on the slot;
``scripts/blas_regimes.py`` lists where each product's bits change with the
width on another BLAS.  At a slot-invariant width, batch composition is
invisible, which ``tests/serve/test_replay_equivalence.py`` verifies bitwise.

Convolutions are lowered channels-last, through the same
:func:`repro.nn.cols.patches_nhwc` helper every training conv op uses.  One
NCHW→NHWC conversion runs before the first convolution, and activations
stay ``(block, height, width, channels)`` from one conv step to the next.  A
step's im2col patch is a strided window view over its zero-padded NHWC input
in ``(kh, kw, C)`` order, so a single copy gathers it in contiguous channel
runs; the conv weight is permuted to that order once, at construction, by
:func:`repro.nn.cols.filters_nhwc`.  The GEMM's ``(block * out_h * out_w,
out_channels)`` product is already the next step's NHWC input, with no
per-layer transpose.  One conversion back to NCHW runs before ``Flatten``,
so fully connected layers and every caller see the training layout.
Low-rank factors keep their stored ``(C, kh, kw)`` patch order — the order
the registry, spill records and migration bytes carry — and each block
permutes its conv ``A`` factors to the kernel's order.

The arithmetic is plain numpy (``np.matmul`` for every product, and each
activation's own expression), and the blocks run one after another on the
calling thread.

The kernel is inference-only (no autograd) and holds its own contiguous copy
of the shared parameters, so serving never races with training code mutating
the live model.  It also serves two of the three adapted routes:
``scope="lora"`` users through :meth:`SharedParameterKernel.predict_lowrank`
(the shared base in the same blocks, each frame's rank-r deltas on top), and
``scope="last"`` users' shared trunk (a kernel over the model's trunk, whose
embedding feeds each frame's personal head).  ``scope="all"`` users bypass
it: each of their frames runs alone, a batch of one, through the
registry's working clone of the model bound to the user's parameters, so
no co-rider can change its bits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.cols import _as_pair, conv_output_shape, filters_nhwc, patches_nhwc

__all__ = ["SharedParameterKernel"]


class _ConvStep:
    """One channels-last convolution lowered to a fixed-shape matrix product.

    Input and output are ``(block, height, width, channels)``.
    """

    def __init__(self, layer: nn.Conv2d, weight: np.ndarray, bias: Optional[np.ndarray]) -> None:
        _, self.in_channels, kh, kw = weight.shape
        self.kernel_size = kh, kw
        self.stride = _as_pair(layer.stride)
        self.padding = _as_pair(layer.padding)
        # (kh * kw * C, out_channels): the patch in (kh, kw, C) order,
        # contiguous so the GEMM reads it linearly.
        self.weight_flat = np.ascontiguousarray(filters_nhwc(weight).T)
        self.bias = None if bias is None else np.ascontiguousarray(bias)

    def _base(self, x: np.ndarray):
        block, height, width, _ = x.shape
        out_h, out_w = conv_output_shape(height, width, self.kernel_size, self.stride, self.padding)
        cols = patches_nhwc(x, self.kernel_size, self.stride, self.padding)
        out = np.matmul(cols, self.weight_flat)
        if self.bias is not None:
            out += self.bias
        return out, cols, block, out_h, out_w

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out, _, block, out_h, out_w = self._base(x)
        return out.reshape(block, out_h, out_w, -1)

    def lowrank(self, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The base product plus a per-frame rank-r delta on the patch view.

        The base GEMM is exactly :meth:`__call__`'s fixed-shape product; the
        delta ``(cols @ a[i].T) @ b[i].T`` runs as per-frame batched rank-r
        matmuls whose shapes never depend on the batch, so the sum stays
        batch-invariant frame by frame.  ``a`` arrives in the training
        ``(C, kh, kw)`` patch order and is permuted here to ``(kh, kw, C)``.
        """
        out, cols, block, out_h, out_w = self._base(x)
        rank = a.shape[1]
        a_t = a.reshape(block, rank, self.in_channels, *self.kernel_size)
        a_t = a_t.transpose(0, 3, 4, 2, 1).reshape(block, -1, rank)  # (block, patch, r)
        hidden = np.matmul(cols.reshape(block, out_h * out_w, -1), a_t)
        out3 = out.reshape(block, out_h * out_w, -1)
        out3 += np.matmul(hidden, b.transpose(0, 2, 1))
        return out.reshape(block, out_h, out_w, -1)


class _LinearStep:
    """One fully connected layer computed transposed (batch on the N axis)."""

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray]) -> None:
        self.weight = np.ascontiguousarray(weight)  # (out_features, in_features)
        self.bias = None if bias is None else np.ascontiguousarray(bias)

    def _base(self, x: np.ndarray) -> np.ndarray:
        x_t = np.ascontiguousarray(x).T
        out_t = np.matmul(self.weight, x_t)  # (out_features, block)
        if self.bias is not None:
            out_t += self.bias[:, None]
        return out_t

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._base(x).T

    def lowrank(self, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The base product plus a per-frame rank-r delta (see _ConvStep)."""
        out_t = self._base(x)
        hidden = np.matmul(x[:, None, :], a.transpose(0, 2, 1))  # (block, 1, r)
        delta = np.matmul(hidden, b.transpose(0, 2, 1))[:, 0]  # (block, out)
        return out_t.T + delta


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class _FlattenStep:
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class _LayoutStep:
    """An NCHW <-> NHWC axis permutation (a view; the consumer copies)."""

    def __init__(self, axes: Tuple[int, ...]) -> None:
        self.axes = axes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.transpose(self.axes)


class SharedParameterKernel:
    """Batch-size-invariant forward pass for one shared parameter set.

    Parameters
    ----------
    module:
        The architecture template (every layer must be one of the supported
        types: ``Conv2d``, ``Linear``, ``ReLU``, ``Tanh``, ``Sigmoid``,
        ``Flatten``, inactive ``Dropout``, or a container of those).
    parameters:
        Optional explicit parameter arrays in ``module.parameters()`` order;
        defaults to a snapshot of the module's current parameters.
    block:
        Fixed GEMM block width.  Must be >= 2: single-column products fall
        into BLAS's ``gemv`` fast path, whose reduction order differs from
        the blocked ``gemm`` kernel and would break batch invariance.
    """

    def __init__(
        self,
        module: nn.Module,
        parameters: Optional[Sequence[np.ndarray]] = None,
        block: int = 32,
    ) -> None:
        if block < 2:
            raise ValueError("block must be >= 2 for batch-invariant GEMM shapes")
        self.block = block
        if parameters is None:
            parameters = [param.data for param in module.parameters()]
        expected = sum(1 for _ in module.parameters())
        parameters = [np.asarray(p, dtype=float).copy() for p in parameters]
        if len(parameters) != expected:
            raise ValueError(
                f"module has {expected} parameters but {len(parameters)} were supplied"
            )
        self._steps: List = []
        self._out_features: Optional[int] = None
        self._channels_last = False
        remaining = self._compile(module, list(parameters))
        if remaining:
            raise ValueError("more parameters supplied than the module consumes")
        self._set_layout(channels_last=False)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _set_layout(self, channels_last: bool) -> None:
        """Append a layout conversion if the activations are in the other one."""
        if channels_last != self._channels_last:
            self._steps.append(_LayoutStep((0, 2, 3, 1) if channels_last else (0, 3, 1, 2)))
            self._channels_last = channels_last

    def _compile(self, module: nn.Module, params: List[np.ndarray]) -> List[np.ndarray]:
        """Flatten the module tree into primitive steps, consuming ``params``."""
        if isinstance(module, nn.Sequential):
            for child in module:
                params = self._compile(child, params)
            return params
        if isinstance(module, nn.Conv2d):
            weight = params.pop(0)
            bias = params.pop(0) if module.bias is not None else None
            self._set_layout(channels_last=True)
            self._steps.append(_ConvStep(module, weight, bias))
            return params
        if isinstance(module, nn.Linear):
            weight = params.pop(0)
            bias = params.pop(0) if module.bias is not None else None
            self._steps.append(_LinearStep(weight, bias))
            self._out_features = int(weight.shape[0])
            return params
        if isinstance(module, nn.ReLU):
            self._steps.append(_relu)
            return params
        if isinstance(module, nn.Tanh):
            self._steps.append(np.tanh)
            return params
        if isinstance(module, nn.Sigmoid):
            self._steps.append(_sigmoid)
            return params
        if isinstance(module, nn.Flatten):
            self._set_layout(channels_last=False)
            self._steps.append(_FlattenStep())
            return params
        if isinstance(module, nn.Dropout):
            # Serving is inference: dropout is identity regardless of p.
            return params
        children = list(module._modules.values())
        if children and not module._parameters:
            for child in children:
                params = self._compile(child, params)
            return params
        raise NotImplementedError(
            f"no batch-invariant serving kernel for layer {module!r}"
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _run_block(self, x: np.ndarray, *factors: np.ndarray) -> np.ndarray:
        pairs = iter(factors)
        for step in self._steps:
            if factors and isinstance(step, (_ConvStep, _LinearStep)):
                x = step.lowrank(x, next(pairs), next(pairs))
            else:
                x = step(x)
        return x

    def _run_blocks(
        self, features: np.ndarray, factors: Sequence[np.ndarray] = ()
    ) -> np.ndarray:
        """Run the steps over blocks of exactly :attr:`block` frames.

        A full block runs in place, on row views of the C-contiguous
        ``features`` and per-row ``factors`` stacks; only a partial tail
        block is copied into zero-padded buffers (features and factors
        padded alike).  Every GEMM shape — and therefore every frame's bit
        pattern — is independent of the batch size.  Because full blocks
        are the caller's memory, a step must never write its input: the
        registry's gather memo hands the same factor stacks to later
        flushes.
        """
        features = np.ascontiguousarray(features, dtype=float)
        if features.ndim != 4:
            raise ValueError(
                f"expected (batch, channels, height, width) features, got {features.shape}"
            )
        total = features.shape[0]
        if any(array.shape[0] != total for array in factors):
            raise ValueError("every factor stack needs one row per frame")
        if total == 0:
            if self._out_features is None:
                raise ValueError("cannot infer output width of an empty batch")
            return np.zeros((0, self._out_features))
        arrays = [features, *(np.ascontiguousarray(array) for array in factors)]
        outputs = []
        for start in range(0, total, self.block):
            valid = min(self.block, total - start)
            if valid == self.block:
                block = [array[start : start + valid] for array in arrays]
            else:
                block = []
                for array in arrays:
                    buffer = np.zeros((self.block, *array.shape[1:]))
                    buffer[:valid] = array[start:]
                    block.append(buffer)
            # A Linear step returns a transposed view and np.concatenate
            # keeps its inputs' order: the copy keeps the result row-major.
            outputs.append(self._run_block(*block)[:valid].copy())
        return np.concatenate(outputs)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Forward ``(batch, channels, height, width)`` features to ``(batch, out)``.

        The batch runs in fixed-width zero-padded blocks, so a frame's bits
        do not depend on the batch it rode in.
        """
        return self._run_blocks(features)

    def predict_lowrank(
        self, features: np.ndarray, factors: Sequence
    ) -> np.ndarray:
        """Forward with per-frame low-rank deltas on every adaptable layer.

        ``factors`` carries one ``(batch, rank, fan_in)`` down-projection and
        one ``(batch, fan_out, rank)`` up-projection per Conv2d/Linear step,
        interleaved ``[a0, b0, a1, b1, ...]`` — the stacks
        :meth:`repro.serve.AdapterRegistry.gather` produces under
        ``scope="lora"``, one row per frame.  The shared base runs in the
        same fixed-width zero-padded blocks as :meth:`predict` (padding rows
        get zero factors), and each frame's delta is a chain of per-frame
        rank-r products — so predictions stay bitwise independent of the
        micro-batch composition while the heavy GEMMs remain the shared
        base's, not per-user ones.
        """
        arrays = [
            np.asarray(f.data if isinstance(f, nn.Tensor) else f, dtype=float)
            for f in factors
        ]
        adaptable = sum(isinstance(step, (_ConvStep, _LinearStep)) for step in self._steps)
        if len(arrays) != 2 * adaptable:
            raise ValueError(
                f"kernel has {adaptable} adaptable layers and needs {2 * adaptable} "
                f"factor stacks, got {len(arrays)}"
            )
        return self._run_blocks(features, arrays)

    def predict_joints(self, features: np.ndarray) -> np.ndarray:
        """Inference reshaped to ``(batch, joints, 3)`` coordinates."""
        flat = self.predict(features)
        return flat.reshape(flat.shape[0], -1, 3)
