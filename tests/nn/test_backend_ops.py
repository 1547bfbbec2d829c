"""Op-database suite: the fast path against plain autograd references.

The ``fast`` path is the arithmetic that runs on plain arrays, outside the
per-op autograd graph: the fused task-batched bodies of
:mod:`repro.nn.backend` (per-task linear, and shared-base + rank-r linear
and convolution), which the batched ``repro.nn`` ops run on,
and the serving kernel's steps (:mod:`repro.serve.kernel`).  Every op runs
over a table of (shape x dtype x input layout) cases and is checked against
the same op built from plain ``Tensor`` ops:

* ``gemm``: the serving kernel's fully connected step against ``a @ b``;
* ``relu``, ``tanh``, ``sigmoid``: the serving kernel's activation steps
  against the ``Tensor`` activations;
* ``linear_batched``: ``x[t] @ w[t].T + b[t]`` on each task;
* the two low-rank ops: ``x[t] @ w.T`` and :func:`repro.nn.conv2d` on each
  task, with the dense weight ``base + b[t] @ a[t]``.

The fused ops are checked on their forward value and every gradient.
``planar`` inputs are C-ordered and ``blocked`` ones Fortran-ordered.

The fast path runs on the raw arrays in the case's dtype; the reference runs
through ``Tensor`` (float64) on the same values.  Tolerances are pinned per
dtype and applied normwise: an array's largest error must sit within
``rtol`` of its largest magnitude (plus ``atol``).  float64 allows only
reassociation-level error; float32 allows its own rounding, which on an
entry that cancels to near zero is set by the size of its terms, not of the
entry.  A finite-difference check of the per-task linear op's ``Tensor``
entry point closes the loop on its backward wiring.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.nn import backend as fused
from repro.nn import Tensor
from repro.nn.grad_check import check_gradients
from repro.serve.kernel import SharedParameterKernel, _LinearStep

#: Pinned per-dtype comparison tolerances of the op-db suite.
TOLERANCES = {
    "float64": {"rtol": 1e-9, "atol": 1e-12},
    "float32": {"rtol": 1e-4, "atol": 1e-6},
}

DTYPES = ("float64", "float32")
LAYOUTS = ("planar", "blocked")
ACTIVATIONS = ("relu", "tanh", "sigmoid")


def _serving_step(layer: nn.Module):
    """The one step the serving kernel compiles a parameter-free ``layer`` to."""
    (step,) = SharedParameterKernel(nn.Sequential(layer))._steps
    return step


def _serving_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through the serving kernel's fully connected step."""
    return _LinearStep(b.T, None)(a)


FAST = SimpleNamespace(
    gemm=_serving_gemm,
    relu=_serving_step(nn.ReLU()),
    tanh=_serving_step(nn.Tanh()),
    sigmoid=_serving_step(nn.Sigmoid()),
    **{
        name: getattr(fused, name)
        for name in fused.__all__
        if name.endswith(("_forward", "_backward"))
    },
)


@pytest.fixture(params=[pytest.param(FAST, id="fast")])
def fast(request):
    """The fast path under test; its id opens every case id."""
    return request.param


def _draw(rng, shape, dtype: str, layout: str = "planar") -> np.ndarray:
    order = "C" if layout == "planar" else "F"
    return np.asarray(rng.normal(size=shape).astype(dtype), order=order)


def _close(actual, expected, dtype: str) -> None:
    assert actual.shape == expected.shape
    tol = TOLERANCES[dtype]
    error = np.max(np.abs(actual - expected), initial=0.0)
    bound = tol["rtol"] * np.max(np.abs(expected), initial=0.0) + tol["atol"]
    assert error <= bound, f"largest error {error:.3e} exceeds {bound:.3e} ({dtype})"


def _per_task_reference(build, arrays, grad):
    """Forward value and every input gradient of ``build`` under ``grad``."""
    leaves = [Tensor(array, requires_grad=True) for array in arrays]
    out = build(*leaves)
    out.backward(grad)
    return out.data, [leaf.grad for leaf in leaves]


def _check_fused(forward, backward, build, arrays, rng, dtype: str) -> None:
    """Fused forward + backward (all gradients) against the per-task build."""
    out, ctx = forward(*arrays)
    assert out.dtype == np.dtype(dtype)
    grad = _draw(rng, out.shape, dtype)
    grads = backward(ctx, grad, (True,) * len(arrays))
    ref_out, ref_grads = _per_task_reference(build, arrays, grad)
    _close(out, ref_out, dtype)
    for got, want in zip(grads, ref_grads):
        _close(got, want, dtype)


# ----------------------------------------------------------------------
# Per-task reference builds from plain autograd ops
# ----------------------------------------------------------------------
def _linear_per_task(x, weight, bias):
    return Tensor.stack([x[t] @ weight[t].T + bias[t] for t in range(x.shape[0])])


def _linear_per_task_no_bias(x, weight):
    return Tensor.stack([x[t] @ weight[t].T for t in range(x.shape[0])])


def _linear_lowrank_per_task(x, weight, a, b, bias):
    return Tensor.stack(
        [x[t] @ (weight + b[t] @ a[t]).T + bias for t in range(x.shape[0])]
    )


def _conv_lowrank_per_task(stride, padding):
    def build(x, weight, a, b, bias):
        flat = weight.reshape(weight.shape[0], -1)
        return Tensor.stack(
            [
                nn.conv2d(x[t], (flat + b[t] @ a[t]).reshape(weight.shape), bias, stride, padding)
                for t in range(x.shape[0])
            ]
        )

    return build


# ----------------------------------------------------------------------
# Serving kernel steps: dense product and activations
# ----------------------------------------------------------------------
class TestGemm:
    SHAPES = [(1, 1, 1), (3, 4, 5), (16, 8, 32), (64, 48, 24), (7, 1, 9)]

    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_reference(self, fast, rng, m, k, n, dtype, layout):
        a = _draw(rng, (m, k), dtype, layout)
        b = _draw(rng, (k, n), dtype, layout)
        out = fast.gemm(a, b)
        assert out.dtype == np.dtype(dtype)
        _close(out, (Tensor(a) @ Tensor(b)).data, dtype)

    def test_deterministic_across_calls(self, fast, rng):
        """Repeat calls yield identical bits."""
        a, b = rng.normal(size=(33, 17)), rng.normal(size=(17, 29))
        np.testing.assert_array_equal(fast.gemm(a, b), fast.gemm(a, b))


class TestElementwise:
    SHAPES = [(1,), (7,), (3, 4), (2, 3, 4, 5), (4, 1024)]

    @pytest.mark.parametrize("op", ACTIVATIONS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_reference(self, fast, rng, op, shape, dtype):
        x = _draw(rng, shape, dtype)
        out = getattr(fast, op)(x)
        assert out.dtype == np.dtype(dtype)
        _close(out, getattr(Tensor(x), op)().data, dtype)

    @pytest.mark.parametrize("op", ACTIVATIONS)
    def test_does_not_mutate_input(self, fast, rng, op):
        x = rng.normal(size=(5, 6))
        before = x.copy()
        getattr(fast, op)(x)
        np.testing.assert_array_equal(x, before)


# ----------------------------------------------------------------------
# Fused batched ops: forward + every gradient
# ----------------------------------------------------------------------
class TestLinearBatched:
    CASES = [(1, 1, 3, 2), (2, 4, 6, 5), (3, 2, 8, 8), (5, 16, 24, 12)]

    @pytest.mark.parametrize("tasks,batch,features_in,features_out", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_forward_and_gradients(
        self, fast, rng, tasks, batch, features_in, features_out, dtype, layout
    ):
        arrays = [
            _draw(rng, (tasks, batch, features_in), dtype, layout),
            _draw(rng, (tasks, features_out, features_in), dtype, layout),
            _draw(rng, (tasks, features_out), dtype),
        ]
        _check_fused(
            fast.linear_batched_forward,
            fast.linear_batched_backward,
            _linear_per_task,
            arrays,
            rng,
            dtype,
        )

    def test_no_bias_and_partial_needs(self, fast, rng):
        x = rng.normal(size=(2, 3, 4))
        weight = rng.normal(size=(2, 5, 4))
        grad = rng.normal(size=(2, 3, 5))
        out, ctx = fast.linear_batched_forward(x, weight, None)
        gx, gweight, gbias = fast.linear_batched_backward(ctx, grad, (True, False, False))
        assert gweight is None and gbias is None
        ref_out, (ref_gx, _) = _per_task_reference(_linear_per_task_no_bias, [x, weight], grad)
        _close(out, ref_out, "float64")
        _close(gx, ref_gx, "float64")


class TestLinearLowRank:
    # The last case's 35 frames fill one 32-row block of the shared-base
    # fold and leave a padded tail.
    CASES = [
        (1, 1, 3, 2, 1),
        (2, 4, 6, 5, 2),
        (3, 2, 8, 8, 4),
        (4, 8, 16, 12, 3),
        (3, 7, 16, 12, 3),
        (5, 7, 16, 12, 3),
    ]

    @pytest.mark.parametrize("tasks,batch,features_in,features_out,rank", CASES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_and_gradients(
        self, fast, rng, tasks, batch, features_in, features_out, rank, dtype
    ):
        arrays = [
            _draw(rng, (tasks, batch, features_in), dtype),
            _draw(rng, (features_out, features_in), dtype),
            _draw(rng, (tasks, rank, features_in), dtype),
            _draw(rng, (tasks, features_out, rank), dtype),
            _draw(rng, (features_out,), dtype),
        ]
        _check_fused(
            fast.linear_lowrank_forward,
            fast.linear_lowrank_backward,
            _linear_lowrank_per_task,
            arrays,
            rng,
            dtype,
        )


class TestConv2dLowRank:
    CASES = [
        (1, 1, 1, 5, 5, 2, 3, 1, 0, 1),
        (2, 2, 3, 6, 6, 4, 3, 1, 1, 2),
        (2, 3, 8, 9, 9, 4, 3, 1, 1, 3),
        (3, 7, 2, 6, 6, 3, 3, 1, 1, 2),
    ]

    @pytest.mark.parametrize(
        "tasks,batch,c_in,h,w,c_out,kernel,stride,padding,rank", CASES
    )
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_and_gradients(
        self, fast, rng, tasks, batch, c_in, h, w, c_out, kernel, stride, padding, rank, dtype
    ):
        patch = c_in * kernel * kernel
        arrays = [
            _draw(rng, (tasks, batch, c_in, h, w), dtype),
            _draw(rng, (c_out, c_in, kernel, kernel), dtype),
            _draw(rng, (tasks, rank, patch), dtype),
            _draw(rng, (tasks, c_out, rank), dtype),
            _draw(rng, (c_out,), dtype),
        ]
        _check_fused(
            lambda x, weight, a, b, bias: fast.conv2d_lowrank_forward(
                x, weight, a, b, bias, stride, padding
            ),
            fast.conv2d_lowrank_backward,
            _conv_lowrank_per_task(stride, padding),
            arrays,
            rng,
            dtype,
        )


# ----------------------------------------------------------------------
# Tensor entry points: partial gradients and finite differences
# ----------------------------------------------------------------------
class TestPartialNeeds:
    def test_linear_batched_without_bias_grads_only_the_input(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(2, 5, 4)))
        grad = rng.normal(size=(2, 3, 5))
        out = nn.linear_batched(x, weight)
        out.backward(grad)
        assert weight.grad is None
        ref_out, (ref_gx, _) = _per_task_reference(
            _linear_per_task_no_bias, [x.data, weight.data], grad
        )
        _close(out.data, ref_out, "float64")
        _close(x.grad, ref_gx, "float64")


class TestGradientCheck:
    def test_linear_batched_with_bias(self, rng):
        inputs = [
            Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True),
            Tensor(rng.normal(size=(3, 6, 5)), requires_grad=True),
            Tensor(rng.normal(size=(3, 6)), requires_grad=True),
        ]
        probe = Tensor(rng.normal(size=(3, 4, 6)))

        def f(inp):
            return (nn.linear_batched(*inp) * probe).sum()

        check_gradients(f, inputs, tolerance=1e-4)
