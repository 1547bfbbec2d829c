"""Task-batched functional execution of ``repro.nn`` models.

The serving tier adapts one parameter set per user.  Under
``scope="lora"`` every user trains only rank-r factors on top of frozen
shared weights, so a whole cohort runs at once: each user's factors are one
slice of a ``(tasks, ...)`` tensor, and the network is replayed
*functionally* — the module tree supplies the architecture while the shared
base parameters and the per-task factors supply the weights — through the
grouped low-rank kernels (:func:`repro.nn.conv2d_lowrank_batched`,
:func:`repro.nn.linear_lowrank_batched`).
:class:`repro.serve.AdapterRegistry` adapts ``scope="lora"`` cohorts with
the ``lowrank_*`` functions here and takes every scope's SGD step with
:func:`gradient_step`.

Because tasks are mathematically independent, backpropagating the **sum** of
per-task losses through the ``(tasks, ...)`` factors yields exactly each
task's own gradient in its slice — no cross-task terms.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from .. import nn

__all__ = [
    "gradient_step",
    "lowrank_shapes",
    "lowrank_parameters",
    "lowrank_forward",
]


def gradient_step(params: Sequence[nn.Tensor], learning_rate: float) -> None:
    """One plain gradient-descent step, in place, as :class:`repro.nn.SGD` takes it.

    Each parameter with a gradient has its ``.data`` rebound to ``param -
    learning_rate * grad`` and its gradient cleared; parameters without one
    are left as they are.  The update is computed in the gradient buffer, so
    it needs no temporary of the parameter's size.  This is the SGD step of
    every adaptation scope of the serving tier.
    """
    for param in params:
        if param.grad is None:
            continue
        step = param.grad
        step *= -learning_rate
        step += param.data
        param.data = step
        param.grad = None


def lowrank_shapes(module: nn.Module) -> List[tuple]:
    """``(fan_out, fan_in)`` of every adaptable weight, in layer order.

    Convolution weights count with their im2col lowering: ``fan_in`` is the
    patch width ``in_channels * kh * kw``.  Biases are not adaptable under
    low-rank adaptation (the shared base bias is served as-is), so they do
    not appear here.
    """
    shapes: List[tuple] = []
    for child in module.modules():
        if isinstance(child, nn.Conv2d):
            out_channels, in_channels, kh, kw = child.weight.shape
            shapes.append((int(out_channels), int(in_channels * kh * kw)))
        elif isinstance(child, nn.Linear):
            out_features, in_features = child.weight.shape
            shapes.append((int(out_features), int(in_features)))
    return shapes


def lowrank_parameters(
    module: nn.Module, rank: int, task_seeds: Sequence[int]
) -> List[nn.Tensor]:
    """Fresh rank-``rank`` factor tensors for ``len(task_seeds)`` tasks.

    Returns ``[a_0, b_0, a_1, b_1, ...]`` — one ``(tasks, rank, fan_in)``
    down-projection and one ``(tasks, fan_out, rank)`` up-projection per
    adaptable layer, all with ``requires_grad=True``.  Every task's ``a``
    rows are drawn from its own :class:`numpy.random.Generator` seeded by
    ``task_seeds[t]`` (layers consume the stream in order), so a task's
    initialization — and therefore its whole adaptation trajectory — is
    bitwise independent of which other tasks share the grouped call.  The
    ``b`` factors start at zero, the standard low-rank init: the delta is
    exactly zero until the first update, and the first gradient step flows
    through ``b``.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not task_seeds:
        raise ValueError("at least one task seed is required")
    shapes = lowrank_shapes(module)
    if not shapes:
        raise ValueError("module has no adaptable Conv2d/Linear layers")
    rngs = [np.random.default_rng(int(seed)) for seed in task_seeds]
    factors: List[nn.Tensor] = []
    for fan_out, fan_in in shapes:
        a = np.stack(
            [rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(rank, fan_in)) for rng in rngs]
        )
        b = np.zeros((len(task_seeds), fan_out, rank))
        factors.append(nn.Tensor(a, requires_grad=True))
        factors.append(nn.Tensor(b, requires_grad=True))
    return factors


def lowrank_forward(
    module: nn.Module,
    base_params: Sequence[nn.Tensor],
    factors: Sequence[nn.Tensor],
    x: nn.Tensor,
) -> nn.Tensor:
    """Run ``module`` functionally as shared base + per-task rank-r deltas.

    ``base_params`` are the *shared* parameters in ``module.parameters()``
    order (typically frozen snapshots — no task axis); ``factors`` is the
    ``[a, b]`` interleaving produced by :func:`lowrank_parameters`.  Each
    Conv2d/Linear layer runs the grouped low-rank kernels
    (:func:`repro.nn.conv2d_lowrank_batched`,
    :func:`repro.nn.linear_lowrank_batched`), so gradients reach only the
    factors — the arithmetic behind ``scope="lora"`` adaptation.

    ``x`` has shape ``(tasks, batch, ...)``; the result is
    ``(tasks, batch, out_features)``.
    """
    base = iter(base_params)
    pairs = iter(factors)
    out = _lowrank_forward_module(module, base, pairs, x)
    if next(base, None) is not None:
        raise ValueError("more base parameters supplied than the module consumes")
    if next(pairs, None) is not None:
        raise ValueError("more low-rank factors supplied than the module consumes")
    return out


def _lowrank_forward_module(
    module: nn.Module,
    base: Iterator[nn.Tensor],
    factors: Iterator[nn.Tensor],
    x: nn.Tensor,
) -> nn.Tensor:
    if isinstance(module, nn.Sequential):
        for child in module:
            x = _lowrank_forward_module(child, base, factors, x)
        return x
    if isinstance(module, nn.Conv2d):
        weight = _take(base, module, "weight")
        bias = _take(base, module, "bias") if module.bias is not None else None
        a = _take(factors, module, "a")
        b = _take(factors, module, "b")
        return nn.conv2d_lowrank_batched(
            x, weight, a, b, bias=bias, stride=module.stride, padding=module.padding
        )
    if isinstance(module, nn.Linear):
        weight = _take(base, module, "weight")
        bias = _take(base, module, "bias") if module.bias is not None else None
        a = _take(factors, module, "a")
        b = _take(factors, module, "b")
        return nn.linear_lowrank_batched(x, weight, a, b, bias=bias)
    if isinstance(module, nn.ReLU):
        return x.relu()
    if isinstance(module, nn.Tanh):
        return x.tanh()
    if isinstance(module, nn.Sigmoid):
        return x.sigmoid()
    if isinstance(module, nn.Flatten):
        return x.reshape(x.shape[0], x.shape[1], -1)
    if isinstance(module, nn.Dropout) and module.p == 0.0:
        return x
    children = list(module._modules.values())
    if children and not module._parameters:
        for child in children:
            x = _lowrank_forward_module(child, base, factors, x)
        return x
    raise NotImplementedError(f"no low-rank kernel for layer {module!r}")


def _take(iterator: Iterator[nn.Tensor], layer: nn.Module, name: str) -> nn.Tensor:
    try:
        return next(iterator)
    except StopIteration:  # pragma: no cover - defensive
        raise ValueError(f"ran out of per-task parameters at {layer!r} ({name})") from None
