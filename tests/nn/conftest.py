"""Reference implementations shared by the ``repro.nn`` tests and the
training pins: the arithmetic the fused ops and the optimizer must
reproduce bitwise."""

from __future__ import annotations

import numpy as np

from repro import nn


def composed_linear(x, weight, bias):
    """The autograd composition ``x.matmul(weight.T) + bias``."""
    out = x.matmul(weight.T)
    return out if bias is None else out + bias


class ReferenceAdam(nn.Optimizer):
    """Adam written as one numpy expression per line, a temporary per
    operation: the arithmetic :class:`nn.Adam` must reproduce bitwise."""

    def __init__(self, parameters, lr=0.001, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.betas, self.eps, self.weight_decay = betas, eps, weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = self.betas
        bias_correction1 = 1.0 - beta1 ** self._step
        bias_correction2 = 1.0 - beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def bits(array: np.ndarray) -> bytes:
    """The array's bytes in C order: equal bits, signed zeros included."""
    return np.ascontiguousarray(array).tobytes()
