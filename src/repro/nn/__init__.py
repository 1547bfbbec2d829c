"""``repro.nn`` — a compact NumPy neural-network substrate.

This package stands in for PyTorch in the FUSE reproduction: it provides
reverse-mode automatic differentiation (:mod:`repro.nn.tensor`), the layers
needed by the MARS baseline CNN and the FUSE model (:mod:`repro.nn.layers`),
the losses and optimizers used in the paper (:mod:`repro.nn.functional`,
:mod:`repro.nn.optim`) and checkpoint serialization.

The task-batched hot-path ops (per-task and low-rank linear/convolution)
keep their fused forward/backward arithmetic in :mod:`repro.nn.backend`, as
plain numpy functions; there is one numeric path and nothing to select.
"""

from .cols import col2im, im2col
from .functional import (
    cross_entropy_loss,
    linear,
    linear_batched,
    linear_lowrank_batched,
    per_task_loss,
    huber_loss,
    l1_loss,
    l2_loss,
    log_softmax,
    mse_loss,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from .grad_check import check_gradients, max_relative_error, numerical_gradient
from .layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .ops import conv2d, conv2d_lowrank_batched
from .optim import SGD, Adam, Optimizer
from .serialization import load_model_into, load_state, save_model, save_state
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    # tensor
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    # ops
    "conv2d",
    "conv2d_lowrank_batched",
    "im2col",
    "col2im",
    # layers
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Sequential",
    # functional
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "l1_loss",
    "l2_loss",
    "mse_loss",
    "huber_loss",
    "cross_entropy_loss",
    "linear",
    "linear_batched",
    "linear_lowrank_batched",
    "per_task_loss",
    # optim
    "Optimizer",
    "SGD",
    "Adam",
    # serialization
    "save_model",
    "save_state",
    "load_state",
    "load_model_into",
    # grad check
    "check_gradients",
    "numerical_gradient",
    "max_relative_error",
]
