"""Equivalence and gradient tests for the shared-base low-rank ops.

The low-rank batched ops promise two things:

1. **Dense equivalence** — applying the rank-r factors as two small
   products is numerically identical (to float64 round-off) to running the
   plain task-batched op with materialized dense weights
   ``base + b[t] @ a[t]``.
2. **Grouping invariance** — a task's output and gradients do not depend
   on which other tasks share the batched call, the bitwise property
   per-user adaptation and grouped serving are built on.  The linear op's
   shared-base products run over every task's frames in fixed-shape blocks
   of ``FOLD_FRAMES`` rows, so the cases take the group past one block and
   past three; the conv op runs one GEMM per task against the task's own
   merged filter bank.  A seeded property draws cohorts at PoseCNN's widths,
   and a canary pins the BLAS properties that make both hold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.models import PoseCNN
from repro.nn import backend
from repro.nn.cols import filters_nhwc
from repro.nn.grad_check import check_gradients
from repro.nn.tensor import Tensor


def _dense_linear_weights(weight: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return weight[None] + np.matmul(b, a)


def _output_and_grads(op, x, weight, a, b, grad, **kwargs):
    """Forward value and the ``x``, ``a`` and ``b`` gradients of ``op``."""
    x, a, b = (Tensor(array, requires_grad=True) for array in (x, a, b))
    out = op(x, Tensor(weight), a, b, **kwargs)
    out.backward(grad)
    return out.data, x.grad, a.grad, b.grad


def _assert_grouping_invariant(op, x, weight, a, b, grad, probes=None, **kwargs):
    """The forward, ``grad_x``, ``grad_a`` and ``grad_b`` of every task in
    ``probes`` (default: every task of the group) equal the task's solo run
    bitwise."""
    grouped = _output_and_grads(op, x, weight, a, b, grad, **kwargs)
    for t in range(x.shape[0]) if probes is None else probes:
        one = slice(t, t + 1)
        solo = _output_and_grads(op, x[one], weight, a[one], b[one], grad[one], **kwargs)
        for got, want in zip(grouped, solo):
            np.testing.assert_array_equal(got[t], want[0])


class TestLinearLowRankBatched:
    @pytest.mark.parametrize(
        "tasks,batch,in_features,out_features,rank",
        [
            (1, 1, 3, 2, 1),
            (2, 4, 6, 5, 2),
            (3, 2, 8, 8, 4),
            (5, 3, 4, 7, 3),
        ],
    )
    def test_matches_dense_batched(self, rng, tasks, batch, in_features, out_features, rank):
        x = rng.normal(size=(tasks, batch, in_features))
        weight = rng.normal(size=(out_features, in_features))
        a = rng.normal(size=(tasks, rank, in_features))
        b = rng.normal(size=(tasks, out_features, rank))
        bias = rng.normal(size=(out_features,))

        lowrank = nn.linear_lowrank_batched(
            Tensor(x), Tensor(weight), Tensor(a), Tensor(b), Tensor(bias)
        ).numpy()
        dense = nn.linear_batched(
            Tensor(x),
            Tensor(_dense_linear_weights(weight, a, b)),
            Tensor(np.broadcast_to(bias, (tasks, out_features)).copy()),
        ).numpy()
        np.testing.assert_allclose(lowrank, dense, rtol=1e-12, atol=1e-12)

    def test_bias_optional(self, rng):
        x = rng.normal(size=(2, 3, 4))
        weight = rng.normal(size=(5, 4))
        a = rng.normal(size=(2, 2, 4))
        b = rng.normal(size=(2, 5, 2))
        out = nn.linear_lowrank_batched(Tensor(x), Tensor(weight), Tensor(a), Tensor(b)).numpy()
        dense = np.einsum("tbi,toi->tbo", x, _dense_linear_weights(weight, a, b))
        np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-12)

    def test_zero_b_factor_reduces_to_base(self, rng):
        """The freshly initialized adapter (B = 0) is exactly the base model."""
        x = rng.normal(size=(3, 2, 6))
        weight = rng.normal(size=(4, 6))
        bias = rng.normal(size=(4,))
        a = rng.normal(size=(3, 2, 6))
        b = np.zeros((3, 4, 2))
        out = nn.linear_lowrank_batched(
            Tensor(x), Tensor(weight), Tensor(a), Tensor(b), Tensor(bias)
        ).numpy()
        base = x @ weight.T + bias
        np.testing.assert_array_equal(out, base)

    @pytest.mark.parametrize("peers", [0, 1, 3, 5, 11])
    def test_grouping_invariance(self, rng, peers):
        """A task's rows and gradients are bitwise identical however the
        group is composed: 9 frames a task, so 3 peers span two blocks of
        the shared-base fold and 11 peers three blocks and a padded tail,
        with tasks across block boundaries and in the tail.  The 512 -> 57
        width is PoseCNN's output layer, where a BLAS build may give a row
        other bits when the product's row count changes."""
        tasks = 1 + peers
        x = rng.normal(size=(tasks, 9, 512))
        weight = rng.normal(size=(57, 512))
        a = rng.normal(size=(tasks, 2, 512))
        b = rng.normal(size=(tasks, 57, 2))
        grad = rng.normal(size=(tasks, 9, 57))
        _assert_grouping_invariant(nn.linear_lowrank_batched, x, weight, a, b, grad)

    def test_gradients_flow_to_factors(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(5, 4)))
        a = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5, 2)) * 0.3, requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)))

        def f(inputs):
            xx, aa, bb = inputs
            return (nn.linear_lowrank_batched(xx, weight, aa, bb, bias) ** 2).sum()

        check_gradients(f, [x, a, b], tolerance=1e-4)

    def test_frozen_base_receives_no_gradient(self, rng):
        weight = Tensor(rng.normal(size=(3, 4)))
        a = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        out = nn.linear_lowrank_batched(
            Tensor(rng.normal(size=(1, 2, 4))), weight, a, b
        )
        (out ** 2).sum().backward()
        assert a.grad is not None and b.grad is not None
        assert weight.grad is None

    def test_shape_validation(self, rng):
        good = dict(
            x=Tensor(rng.normal(size=(2, 3, 4))),
            weight=Tensor(rng.normal(size=(5, 4))),
            a=Tensor(rng.normal(size=(2, 2, 4))),
            b=Tensor(rng.normal(size=(2, 5, 2))),
        )
        with pytest.raises(ValueError):
            nn.linear_lowrank_batched(
                good["x"], good["weight"], Tensor(rng.normal(size=(3, 2, 4))), good["b"]
            )
        with pytest.raises(ValueError):
            nn.linear_lowrank_batched(
                good["x"], good["weight"], good["a"], Tensor(rng.normal(size=(2, 4, 2)))
            )
        with pytest.raises(ValueError):
            nn.linear_lowrank_batched(
                good["x"], Tensor(rng.normal(size=(5, 6))), good["a"], good["b"]
            )


class TestConv2dLowRankBatched:
    @pytest.mark.parametrize(
        "tasks,batch,channels,out_channels,size,kernel,rank,stride,padding",
        [
            (1, 1, 1, 2, 5, 3, 1, 1, 0),
            (2, 2, 3, 4, 6, 3, 2, 1, 1),
            (3, 1, 2, 5, 8, 3, 4, 2, 1),
            (2, 3, 4, 3, 5, 2, 3, 1, 0),
        ],
    )
    def test_matches_dense_batched(
        self, rng, tasks, batch, channels, out_channels, size, kernel, rank, stride, padding
    ):
        patch = channels * kernel * kernel
        x = rng.normal(size=(tasks, batch, channels, size, size))
        weight = rng.normal(size=(out_channels, channels, kernel, kernel))
        a = rng.normal(size=(tasks, rank, patch))
        b = rng.normal(size=(tasks, out_channels, rank))
        bias = rng.normal(size=(out_channels,))

        lowrank = nn.conv2d_lowrank_batched(
            Tensor(x), Tensor(weight), Tensor(a), Tensor(b), Tensor(bias),
            stride=stride, padding=padding,
        ).numpy()
        dense_weight = (
            weight.reshape(out_channels, patch)[None] + np.matmul(b, a)
        ).reshape(tasks, out_channels, channels, kernel, kernel)
        dense = np.stack(
            [
                nn.conv2d(
                    Tensor(x[t]), Tensor(dense_weight[t]), Tensor(bias),
                    stride=stride, padding=padding,
                ).numpy()
                for t in range(tasks)
            ]
        )
        np.testing.assert_allclose(lowrank, dense, rtol=1e-12, atol=1e-12)

    def test_zero_b_factor_reduces_to_base(self, rng):
        x = rng.normal(size=(2, 1, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=(3,))
        a = rng.normal(size=(2, 2, 2 * 3 * 3))
        b = np.zeros((2, 3, 2))
        out = nn.conv2d_lowrank_batched(
            Tensor(x), Tensor(weight), Tensor(a), Tensor(b), Tensor(bias), padding=1
        ).numpy()
        base = nn.conv2d(
            Tensor(x.reshape(2, 2, 5, 5)), Tensor(weight), Tensor(bias), padding=1
        ).numpy()
        np.testing.assert_array_equal(out.reshape(base.shape), base)

    @pytest.mark.parametrize("peers", [0, 2, 5, 11])
    def test_grouping_invariance(self, rng, peers):
        """A task runs one GEMM against its own merged filter bank, so no
        count of peers may change its rows.  The channels are PoseCNN's
        first conv (5 -> 16, 3x3); on 4x4 inputs a solo task's 48 rows and a
        cohort's hundreds would sit on either side of a BLAS small-matrix
        threshold if the rows were ever folded across tasks."""
        tasks = 1 + peers
        x = rng.normal(size=(tasks, 3, 5, 4, 4))
        weight = rng.normal(size=(16, 5, 3, 3))
        a = rng.normal(size=(tasks, 2, 5 * 3 * 3))
        b = rng.normal(size=(tasks, 16, 2))
        grad = rng.normal(size=(tasks, 3, 16, 4, 4))
        _assert_grouping_invariant(
            nn.conv2d_lowrank_batched, x, weight, a, b, grad, padding=1
        )

    def test_gradients_flow_to_factors(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 2, 4, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 2, 2, 2)))
        a = Tensor(rng.normal(size=(2, 2, 2 * 2 * 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 2)) * 0.3, requires_grad=True)

        def f(inputs):
            xx, aa, bb = inputs
            return (nn.conv2d_lowrank_batched(xx, weight, aa, bb) ** 2).sum()

        check_gradients(f, [x, a, b], tolerance=1e-4)

    def test_shape_validation(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 2, 4, 4)))
        weight = Tensor(rng.normal(size=(3, 2, 2, 2)))
        a = Tensor(rng.normal(size=(2, 2, 8)))
        b = Tensor(rng.normal(size=(2, 3, 2)))
        with pytest.raises(ValueError):
            nn.conv2d_lowrank_batched(Tensor(rng.normal(size=(2, 2, 4, 4))), weight, a, b)
        with pytest.raises(ValueError):
            nn.conv2d_lowrank_batched(x, weight, Tensor(rng.normal(size=(2, 2, 7))), b)
        with pytest.raises(ValueError):
            nn.conv2d_lowrank_batched(x, weight, a, Tensor(rng.normal(size=(2, 2, 2))))


#: PoseCNN's low-rank layers as the property draws them: (op, in, out,
#: op keyword arguments); the conv layers take 8x8 inputs.
_POSECNN_LAYERS = {
    "fc1": (nn.linear_lowrank_batched, 2048, 512, {}),
    "fc2": (nn.linear_lowrank_batched, 512, 57, {}),
    "conv1": (nn.conv2d_lowrank_batched, 5, 16, {"padding": 1}),
    "conv2": (nn.conv2d_lowrank_batched, 16, 32, {"padding": 1}),
}


class TestGroupingInvarianceProperty:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        layer=st.sampled_from(sorted(_POSECNN_LAYERS)),
        tasks=st.integers(1, 40),
        frames=st.integers(1, 12),
        data=st.data(),
    )
    def test_random_task_matches_solo(self, layer, tasks, frames, data):
        """A random task of a random cohort at PoseCNN's widths: forward,
        ``grad_x``, ``grad_a`` and ``grad_b`` equal its solo run bitwise.
        Up to 480 rows a linear group spans fifteen fold blocks, far past
        the hand-picked peers above."""
        op, fan_in, fan_out, kwargs = _POSECNN_LAYERS[layer]
        probe = data.draw(st.integers(0, tasks - 1), label="probe")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rank = 4
        if op is nn.conv2d_lowrank_batched:
            x = rng.normal(size=(tasks, frames, fan_in, 8, 8))
            weight = rng.normal(size=(fan_out, fan_in, 3, 3))
            a = rng.normal(size=(tasks, rank, fan_in * 9))
            grad = rng.normal(size=(tasks, frames, fan_out, 8, 8))
        else:
            x = rng.normal(size=(tasks, frames, fan_in))
            weight = rng.normal(size=(fan_out, fan_in))
            a = rng.normal(size=(tasks, rank, fan_in))
            grad = rng.normal(size=(tasks, frames, fan_out))
        b = rng.normal(size=(tasks, fan_out, rank))
        _assert_grouping_invariant(op, x, weight, a, b, grad, probes=[probe], **kwargs)


def _posecnn_base_products():
    """Every base-weight product of a PoseCNN adaptation step: for each
    layer, ``(name, kind, weight operand)`` of the forward (``rows @
    weight.T``) and the input-gradient (``grad @ weight``) product, in the
    layouts the low-rank bodies pass to BLAS.  Conv filters are flattened
    by the bodies' own :func:`repro.nn.cols.filters_nhwc`, in the
    channels-last ``(kh, kw, C)`` patch order, the layout of each task's
    merged filter bank."""
    model = PoseCNN()
    products = []
    for kind, module_type in (("conv", nn.Conv2d), ("fc", nn.Linear)):
        layers = [m for m in model.network if isinstance(m, module_type)]
        for index, layer in enumerate(layers, start=1):
            weight = layer.weight.data
            if kind == "conv":
                weight = filters_nhwc(weight)
            products.append((f"{kind}{index}-forward", kind, weight.T))
            products.append((f"{kind}{index}-grad_x", kind, weight))
    return products


class TestFixedShapeRowCanary:
    """Canary for the BLAS properties grouped == solo adaptation rests on.

    * Fully connected layers fold every task's rows through GEMMs of one
      fixed shape, so inside such a GEMM a row's product must not depend on
      the slot it occupies or on the other rows of the block.  BLAS builds
      do *not* promise this across shapes (a row's bits change as the row
      count crosses small-matrix thresholds), which is why every block has
      the same shape.
    * Convolutions run one GEMM per task against the task's own merged
      filter bank, all tasks as one ``np.matmul`` stack, so a task's product
      must not depend on its position in the stack or on its peers.

    If this fails on a new BLAS build, grouped == solo adaptation breaks at
    the real shapes.
    """

    #: Frames per conv task: onboarding's calibration set; 64 rows a frame.
    CONV_FRAMES = 5
    CONV_TASKS = 4

    @pytest.mark.parametrize(
        "kind,weight",
        [pytest.param(kind, w, id=name) for name, kind, w in _posecnn_base_products()],
    )
    def test_row_is_slot_and_co_row_invariant(self, rng, kind, weight):
        if kind == "fc":
            self._check_fold_rows(rng, weight)
        else:
            self._check_task_stack(rng, weight)

    @staticmethod
    def _check_fold_rows(rng, weight):
        # FOLD_FRAMES blocks; block j holds the probe in slot j and random
        # rows elsewhere: together the blocks put the probe in every slot.
        height = backend.FOLD_FRAMES
        probe = rng.normal(size=weight.shape[0])
        rows = rng.normal(size=(height, height, weight.shape[0]))
        slots = np.arange(height)
        rows[slots, slots] = probe
        folded = backend._fold_product(rows.reshape(1, -1, weight.shape[0]), weight)
        probes = folded.reshape(height, height, -1)[slots, slots]
        solo = backend._fold_product(probe[None, None], weight)[0, 0]
        np.testing.assert_array_equal(probes, np.broadcast_to(solo, probes.shape))

    def _check_task_stack(self, rng, weight):
        k, n = weight.shape
        rows_per_task = self.CONV_FRAMES * 64

        def banks(tasks):
            # Random per-task operands in the body's layout: a transposed
            # view where the body passes ``merged.transpose(0, 2, 1)``.
            if weight.flags.c_contiguous:
                return rng.normal(size=(tasks, k, n))
            return rng.normal(size=(tasks, n, k)).transpose(0, 2, 1)

        probe_rows = rng.normal(size=(1, rows_per_task, k))
        probe_bank = banks(1)
        solo = np.matmul(probe_rows, probe_bank)[0]
        for position in range(self.CONV_TASKS):
            rows = rng.normal(size=(self.CONV_TASKS, rows_per_task, k))
            stack = banks(self.CONV_TASKS)
            rows[position] = probe_rows[0]
            stack[position] = probe_bank[0]
            np.testing.assert_array_equal(np.matmul(rows, stack)[position], solo)
