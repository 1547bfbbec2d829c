"""Functional interface: activations and loss functions.

The FUSE paper trains with the mean absolute error (L1) between predicted and
ground-truth joint coordinates (Section 3.1.2); :func:`l1_loss` is therefore
the primary loss in this repository.  L2 and Huber losses are provided because
the paper explicitly notes "other functions such as L2 can also be used".
"""

from __future__ import annotations

import numpy as np

from . import backend as _backend
from .tensor import Tensor

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "linear",
    "linear_batched",
    "linear_lowrank_batched",
    "l1_loss",
    "l2_loss",
    "mse_loss",
    "huber_loss",
    "cross_entropy_loss",
    "per_task_loss",
]


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return _as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fully connected layer ``x @ weight.T + bias`` as one fused autograd op.

    The output and every gradient equal, bitwise, those of the composition
    ``x.matmul(weight.T) + bias``, without its intermediate nodes.  The weight
    gradient is ``grad.T @ x``, computed in the weight's own ``(out, in)``
    layout rather than transposed and copied into it, and every gradient is
    a fresh BLAS product or reduction, adopted without a defensive copy.

    Parameters
    ----------
    x:
        Input of shape ``(..., in_features)``; leading axes are batch axes.
    weight:
        Weights of shape ``(out_features, in_features)``.
    bias:
        Optional bias of shape ``(out_features,)``.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear expects (..., in_features) inputs and (out_features, "
            f"in_features) weights, got {x.shape} and {weight.shape}"
        )
    out = x.data @ weight.data.T
    if bias is not None:
        out += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            if x.ndim == 1:
                grad_weight = np.outer(grad, x.data)
            else:
                # One product per leading index, summed over the leading
                # axes: the reduction order of the broadcast matmul rule.
                grad_weight = np.swapaxes(grad, -1, -2) @ x.data
                if grad_weight.ndim > 2:
                    grad_weight = grad_weight.sum(axis=tuple(range(grad_weight.ndim - 2)))
            weight._accumulate_owned(grad_weight)
        if bias is not None and bias.requires_grad:
            # axis=() on a 1-D input still returns a fresh array.
            bias._accumulate_owned(grad.sum(axis=tuple(range(grad.ndim - 1))))
        if x.requires_grad:
            x._accumulate_owned(grad @ weight.data)

    return Tensor._make(out, parents, backward)


def linear_batched(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fully connected layer with an independent weight matrix per task.

    Implemented as one fused autograd op (rather than composing transpose,
    matmul and broadcast-add nodes) so that every gradient array is produced
    contiguous by a single batched BLAS call — the difference is significant
    for the large per-user FC weight tensors of grouped adaptation.

    Parameters
    ----------
    x:
        Input of shape ``(tasks, batch, in_features)``.
    weight:
        Weights of shape ``(tasks, out_features, in_features)`` (the same
        per-matrix layout as :class:`repro.nn.Linear`).
    bias:
        Optional bias of shape ``(tasks, out_features)``.

    Returns
    -------
    Tensor of shape ``(tasks, batch, out_features)``; task ``t`` of the
    output equals ``x[t] @ weight[t].T + bias[t]``.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError(
            f"linear_batched expects (T, B, I) inputs and (T, O, I) weights, "
            f"got {x.shape} and {weight.shape}"
        )
    if x.shape[0] != weight.shape[0] or x.shape[2] != weight.shape[2]:
        raise ValueError(
            f"incompatible shapes for linear_batched: {x.shape} and {weight.shape}"
        )
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.shape[0], weight.shape[1]):
            raise ValueError(
                f"bias must have shape {(weight.shape[0], weight.shape[1])}, got {bias.shape}"
            )

    out, ctx = _backend.linear_batched_forward(
        x.data, weight.data, None if bias is None else bias.data
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_x, grad_weight, grad_bias = _backend.linear_batched_backward(
            ctx,
            grad,
            (
                x.requires_grad,
                weight.requires_grad,
                bias is not None and bias.requires_grad,
            ),
        )
        if grad_x is not None:
            x._accumulate_owned(grad_x)
        if grad_weight is not None:
            weight._accumulate_owned(grad_weight)
        if grad_bias is not None:
            bias._accumulate_owned(grad_bias)

    return Tensor._make(out, parents, backward)


def linear_lowrank_batched(
    x: Tensor,
    weight: Tensor,
    a: Tensor,
    b: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Fully connected layer with a *shared* base and per-task rank-r deltas.

    Task ``t`` of the output equals ``x[t] @ (weight + b[t] @ a[t]).T +
    bias`` — but the dense ``(out, in)`` delta is never materialized: the
    low-rank factors are applied as two small matrix products per task,
    ``(x[t] @ a[t].T) @ b[t].T``.  That is the arithmetic that makes
    full-network per-user personalization cost ``O(r * (in + out))`` memory
    per task instead of ``O(in * out)``.  The shared base product runs once
    over every task's rows, in fixed-shape blocks of
    :data:`repro.nn.backend.FOLD_FRAMES` frames, so a task's output does not
    depend on its peers.

    Gradients flow to ``a`` and ``b`` (and through ``x``); the base
    ``weight`` / ``bias`` are typically frozen snapshots (``requires_grad``
    False), so adaptation trains only the rank-r factors.

    Parameters
    ----------
    x:
        Input of shape ``(tasks, batch, in_features)``.
    weight:
        Shared base weights of shape ``(out_features, in_features)`` — no
        task axis; every task reads the same matrix.
    a:
        Down-projection factors of shape ``(tasks, rank, in_features)``.
    b:
        Up-projection factors of shape ``(tasks, out_features, rank)``.
    bias:
        Optional shared base bias of shape ``(out_features,)``.

    Returns
    -------
    Tensor of shape ``(tasks, batch, out_features)``.
    """
    x, weight, a, b = _as_tensor(x), _as_tensor(weight), _as_tensor(a), _as_tensor(b)
    if x.ndim != 3 or weight.ndim != 2 or a.ndim != 3 or b.ndim != 3:
        raise ValueError(
            "linear_lowrank_batched expects (T, B, I) inputs, (O, I) base "
            f"weights, (T, r, I) and (T, O, r) factors, got {x.shape}, "
            f"{weight.shape}, {a.shape}, {b.shape}"
        )
    tasks, _, in_features = x.shape
    out_features = weight.shape[0]
    if weight.shape[1] != in_features:
        raise ValueError(
            f"base weight {weight.shape} does not match input width {in_features}"
        )
    rank = a.shape[1]
    if a.shape != (tasks, rank, in_features):
        raise ValueError(f"a must have shape {(tasks, rank, in_features)}, got {a.shape}")
    if b.shape != (tasks, out_features, rank):
        raise ValueError(f"b must have shape {(tasks, out_features, rank)}, got {b.shape}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (out_features,):
            raise ValueError(f"bias must have shape {(out_features,)}, got {bias.shape}")

    out, ctx = _backend.linear_lowrank_forward(
        x.data, weight.data, a.data, b.data, None if bias is None else bias.data
    )

    parents = (x, weight, a, b) if bias is None else (x, weight, a, b, bias)

    def backward(grad: np.ndarray) -> None:
        grad_x, grad_weight, grad_a, grad_b, grad_bias = _backend.linear_lowrank_backward(
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
        if grad_x is not None:
            x._accumulate_owned(grad_x)
        if grad_weight is not None:
            weight._accumulate(grad_weight)
        if grad_bias is not None:
            bias._accumulate(grad_bias)

    return Tensor._make(out, parents, backward)


def per_task_loss(prediction: Tensor, target: Tensor, loss: str = "l1", delta: float = 1.0) -> Tensor:
    """Per-task losses for ``(tasks, batch, features)`` tensors.

    Returns a ``(tasks,)`` tensor whose entry ``t`` equals the scalar loss of
    task ``t`` computed over its own batch.  Because the tasks are
    independent, backpropagating ``per_task_loss(...).sum()`` through
    per-task parameters yields exactly each task's own gradient — the
    property grouped per-user adaptation relies on.
    """
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    if prediction.shape != target.shape:
        raise ValueError(
            f"shape mismatch between prediction {prediction.shape} and target {target.shape}"
        )
    if prediction.ndim != 3:
        raise ValueError(f"per_task_loss expects (T, B, F) tensors, got {prediction.shape}")
    residual = prediction - target
    if loss == "l1":
        return residual.abs().mean(axis=(1, 2))
    if loss in ("l2", "mse"):
        return (residual * residual).mean(axis=(1, 2))
    if loss == "huber":
        abs_residual = residual.abs()
        quadratic = abs_residual.clip(0.0, delta)
        linear = abs_residual - quadratic
        return (quadratic * quadratic * 0.5 + linear * delta).mean(axis=(1, 2))
    raise ValueError(f"unknown loss '{loss}'")


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error — the loss used throughout the FUSE paper."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    if prediction.shape != target.shape:
        raise ValueError(
            f"shape mismatch between prediction {prediction.shape} and target {target.shape}"
        )
    return (prediction - target).abs().mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    if prediction.shape != target.shape:
        raise ValueError(
            f"shape mismatch between prediction {prediction.shape} and target {target.shape}"
        )
    diff = prediction - target
    return (diff * diff).mean()


def l2_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Alias for :func:`mse_loss` matching the paper's terminology."""
    return mse_loss(prediction, target)


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth L1) loss.

    Quadratic for residuals smaller than ``delta`` and linear beyond, making
    training robust to the occasional wildly wrong point-cloud frame.
    """
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    residual = prediction - target
    abs_residual = residual.abs()
    quadratic = abs_residual.clip(0.0, delta)
    linear = abs_residual - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy over integer class labels.

    Not used by the pose-regression pipeline, but required by the activity-
    classification example that demonstrates reuse of the radar substrate.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy_loss expects 2-D logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match batch size {logits.shape[0]}"
        )
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(logits.shape[0]), labels]
    return -picked.mean()
