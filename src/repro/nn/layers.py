"""Neural-network layers and the :class:`Module` container abstraction.

The layer set covers what the MARS baseline CNN and the FUSE model build
(Conv2d, ReLU, Flatten, Linear, Dropout) plus the Tanh and Sigmoid
activations.

:class:`Conv2d` and :class:`Linear` each run one fused autograd op,
:func:`repro.nn.ops.conv2d` and :func:`repro.nn.functional.linear`, whose
backward returns the weight gradient in the weight's own layout.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import init as initializers
from .functional import linear
from .ops import conv2d
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Sequential",
]


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for parameter iteration,
    state-dict (de)serialization, gradient zeroing and mode switching.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a flat list (stable ordering)."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of learnable scalar parameters."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        """Clear gradient buffers of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch the module (and children) between train and eval behaviour."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Shortcut for ``train(False)``."""
        return self.train(False)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of all parameters keyed by name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = [name for name in params if name not in state]
        if missing:
            raise KeyError(f"state dict is missing parameters: {missing}")
        for name, param in params.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data = value.astype(param.data.dtype).copy()

    def clone(self) -> "Module":
        """Return a functionally identical copy with independent parameters.

        Used by the meta-learning inner loop, which adapts a clone of the
        meta-model without touching the meta-parameters.
        """
        import copy

        duplicate = copy.deepcopy(self)
        duplicate.zero_grad()
        return duplicate

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    def __repr__(self) -> str:
        children = ", ".join(f"{k}={v!r}" for k, v in self._modules.items())
        return f"{type(self).__name__}({children})"


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive integers")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.kaiming_uniform((out_features, in_features), rng), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution layer over ``(batch, channels, height, width)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | Tuple[int, int],
        stride: int | Tuple[int, int] = 1,
        padding: int | Tuple[int, int] = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("Conv2d channel counts must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            initializers.kaiming_uniform((out_channels, in_channels, kh, kw), rng),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:
        return "Tanh()"


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)

    def __repr__(self) -> str:
        return "Flatten()"


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self) -> Iterator[Module]:
        for name in self._order:
            yield self._modules[name]

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __len__(self) -> int:
        return len(self._order)

    def append(self, module: Module) -> "Sequential":
        """Add a module to the end of the pipeline."""
        name = f"layer{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for module in self:
            x = module(x)
        return x

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self)
        return f"Sequential({inner})"
