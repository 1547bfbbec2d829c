"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` neural-network substrate.  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it so that gradients
can be computed with a single call to :meth:`Tensor.backward`.

The design intentionally mirrors the familiar PyTorch semantics (lazily
accumulated ``.grad`` buffers, ``requires_grad`` flags, broadcasting-aware
backward rules) while staying small enough to audit: every backward rule is
covered by finite-difference tests in ``tests/nn``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode:
    """Process-wide switch controlling whether operations build a graph."""

    enabled: bool = True


class no_grad:
    """Context manager that disables graph construction.

    Example
    -------
    >>> x = Tensor([1.0, 2.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2
    >>> y.requires_grad
    False
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return ``True`` when new operations record gradient information."""
    return _GradMode.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting may expand an operand along new leading axes or along
    axes of size one.  The gradient flowing back through a broadcast must be
    summed over those expanded axes to recover the operand's shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float64`` by default for numerical
        robustness in gradient checks; training code may pass ``float32``.
    requires_grad:
        When ``True`` the tensor participates in the autograd graph and
        accumulates gradients in :attr:`grad` after :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a deep copy detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient buffer."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient buffer the caller guarantees is freshly
        allocated and unaliased, skipping the defensive copy of
        :meth:`_accumulate`.

        Only backward rules that just produced ``grad`` from a BLAS call or
        reduction may use this; sharing the array with another tensor
        afterwards would corrupt gradient accumulation.  The saving matters
        for the large ``(tasks, ...)`` gradients of the batched meta-learning
        inner loop.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate gradients from this tensor through the graph.

        Leaf tensors accumulate into :attr:`grad` across calls.  A non-leaf
        tensor's gradient is released once its backward rule has sent it to
        the parents, so a later call never re-sends it and the backward pass
        holds only the gradients still waiting to propagate.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ones, which is only valid for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only supported "
                    f"for scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion-depth issues on deep
        # graphs (e.g. many fine-tuning steps recorded in one graph).
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if not node.requires_grad:
                continue
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(-grad)

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other_t.data)
            other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other_t.data)
            other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 1-D and 2-D (and batched) operands."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other_t._accumulate(grad * a)
            elif a.ndim == 1:
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
                other_t._accumulate(np.outer(a, grad))
            elif b.ndim == 1:
                self._accumulate(np.outer(grad, b))
                other_t._accumulate(np.swapaxes(a, -1, -2) @ grad)
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                self._accumulate(_unbroadcast(grad_a, a.shape))
                other_t._accumulate(_unbroadcast(grad_b, b.shape))

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onward into one axis."""
        lead = self.data.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_seq: Optional[Tuple[int, ...]] = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_seq = tuple(axes[0])
        else:
            axes_seq = tuple(axes)
        data = np.transpose(self.data, axes_seq)

        def backward(grad: np.ndarray) -> None:
            if axes_seq is None:
                self._accumulate(np.transpose(grad))
            else:
                inverse = np.argsort(axes_seq)
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(grad, self.data.shape))
                return
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                grad = np.expand_dims(grad, axes)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(mask * grad)
                return
            axes = axis if isinstance(axis, tuple) else (axis,)
            expanded = grad if keepdims else np.expand_dims(grad, axes)
            maxima = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == maxima).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * expanded)

        return Tensor._make(data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * mask)

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Combination helpers
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Differentiable concatenation along ``axis``."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad: np.ndarray) -> None:
            start = 0
            for t, size in zip(tensors, sizes):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, start + size)
                t._accumulate(grad[tuple(index)])
                start += size

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Differentiable stacking along a new axis."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.split(grad, len(tensors), axis=axis)
            for t, piece in zip(tensors, slices):
                t._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)

    def pad(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` follows ``numpy.pad`` semantics."""
        pad_width = tuple(tuple(p) for p in pad_width)
        data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            index = tuple(
                slice(before, dim + before)
                for (before, _after), dim in zip(pad_width, self.data.shape)
            )
            self._accumulate(grad[index])

        return Tensor._make(data, (self,), backward)
