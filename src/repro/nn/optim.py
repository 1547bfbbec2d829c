"""Gradient-based optimizers.

The FUSE paper uses Adam for both supervised training and meta-training
(Section 4.1).  Plain SGD is also provided because the MAML inner loop
(Algorithm 1, line 7) is a single vanilla gradient step with the
sample-level learning rate ``alpha``.

:class:`Adam` evaluates its update in place, one numpy operation at a time
in the textbook expression's order, through one scratch buffer per
parameter held by the optimizer (not by the parameter, so ``state_dict``
and pickled models do not carry it).  Every step rebinds ``param.data`` to
a fresh array, because callers may hold the old one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class holding a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear the gradient buffers of all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> Dict:
        """Serializable snapshot of optimizer hyper-parameters and state."""
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict) -> None:
        self.lr = float(state["lr"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one SGD update to every parameter with a gradient."""
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data = param.data - self.lr * update

    def state_dict(self) -> Dict:
        state = super().state_dict()
        state.update(
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            velocity=[v.copy() for v in self._velocity],
        )
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        self._velocity = [np.asarray(v).copy() for v in state["velocity"]]


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) — the paper's optimizer of choice."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = (beta1, beta2)
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Per-parameter temporaries reused by every step; not optimizer state.
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one Adam update to every parameter with a gradient.

        ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
        ``p - lr*m_hat / (sqrt(v_hat) + eps)``, one operation at a time in
        that order.  The result lands in a fresh array that ``param.data``
        is rebound to, so arrays a caller took from ``param.data`` keep
        their values.
        """
        self._step += 1
        beta1, beta2 = self.betas
        bias_correction1 = 1.0 - beta1 ** self._step
        bias_correction2 = 1.0 - beta2 ** self._step
        for param, m, v, scratch in zip(self.parameters, self._m, self._v, self._scratch):
            if param.grad is None:
                continue
            updated = np.empty_like(param.data)
            grad = param.grad
            if self.weight_decay:
                # ``updated`` holds the decayed gradient until the update
                # overwrites it below.
                grad = np.multiply(param.data, self.weight_decay, out=updated)
                grad += param.grad
            m *= beta1
            m += np.multiply(grad, 1.0 - beta1, out=scratch)
            v *= beta2
            product = np.multiply(grad, 1.0 - beta2, out=scratch)
            product *= grad
            v += product
            denominator = np.divide(v, bias_correction2, out=scratch)
            np.sqrt(denominator, out=denominator)
            denominator += self.eps
            update = np.divide(m, bias_correction1, out=updated)
            update *= self.lr
            update /= denominator
            param.data = np.subtract(param.data, update, out=update)

    def state_dict(self) -> Dict:
        state = super().state_dict()
        state.update(
            betas=self.betas,
            eps=self.eps,
            weight_decay=self.weight_decay,
            step=self._step,
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        self.betas = tuple(state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step = int(state["step"])
        self._m = [np.asarray(m).copy() for m in state["m"]]
        self._v = [np.asarray(v).copy() for v in state["v"]]
