"""Equivalence and gradient tests for the shared-base low-rank ops.

The low-rank batched ops promise two things:

1. **Dense equivalence** — applying the rank-r factors as two small
   products is numerically identical (to float64 round-off) to running the
   plain task-batched op with materialized dense weights
   ``base + b[t] @ a[t]``.
2. **Grouping invariance** — a task's output and gradients do not depend
   on which other tasks share the batched call, the bitwise property
   per-user adaptation and grouped serving are built on.  The shared-base
   products run over every task's frames in fixed-shape blocks of
   ``FOLD_FRAMES`` frames, so the cases take the group past one block and
   past two, and a canary pins the BLAS property that makes this hold.
"""

from __future__ import annotations

import numpy as np
import pytest

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


def _assert_grouping_invariant(op, x, weight, a, b, grad, **kwargs):
    """Every task's forward, ``grad_x``, ``grad_a`` and ``grad_b`` in the
    group equal the task's solo run bitwise."""
    grouped = _output_and_grads(op, x, weight, a, b, grad, **kwargs)
    for t in range(x.shape[0]):
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
        group is composed: 3 frames a task, so 5 peers span two blocks of
        the shared-base fold and 11 peers three, with tasks across block
        boundaries and in the padded tail.  The 512 -> 57 width is PoseCNN's
        output layer, where a BLAS build may give a row other bits when the
        product's row count changes."""
        tasks = 1 + peers
        x = rng.normal(size=(tasks, 3, 512))
        weight = rng.normal(size=(57, 512))
        a = rng.normal(size=(tasks, 2, 512))
        b = rng.normal(size=(tasks, 57, 2))
        grad = rng.normal(size=(tasks, 3, 57))
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
        dense = nn.conv2d_batched(
            Tensor(x),
            Tensor(dense_weight),
            Tensor(np.broadcast_to(bias, (tasks, out_channels)).copy()),
            stride=stride, padding=padding,
        ).numpy()
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
        """As for the linear op: 3 frames a task, so 5 peers span two blocks
        of the shared-base fold and 11 peers three.  The channels are
        PoseCNN's first conv (5 -> 16, 3x3); on 4x4 inputs a solo task's 48
        rows and a cohort's hundreds can sit on either side of a BLAS
        small-matrix threshold."""
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


def _posecnn_base_products():
    """Every shared-base product of a PoseCNN adaptation step: for each
    layer, ``(name, weight operand, rows per frame)`` of the forward
    (``rows @ weight.T``) and the input-gradient (``grad @ weight``)
    product, in the layouts the low-rank bodies pass to BLAS.  Conv filters
    are flattened by the bodies' own :func:`repro.nn.cols.filters_nhwc`,
    in the channels-last ``(kh, kw, C)`` patch order."""
    model = PoseCNN()
    pixels = model.config.input_height * model.config.input_width  # same padding
    products = []
    for kind, module_type, frame_rows in (("conv", nn.Conv2d, pixels), ("fc", nn.Linear, 1)):
        layers = [m for m in model.network if isinstance(m, module_type)]
        for index, layer in enumerate(layers, start=1):
            weight = layer.weight.data
            if kind == "conv":
                weight = filters_nhwc(weight)
            products.append((f"{kind}{index}-forward", weight.T, frame_rows))
            products.append((f"{kind}{index}-grad_x", weight, frame_rows))
    return products


class TestFixedShapeRowCanary:
    """Canary for the BLAS property the shared-base fold rests on.

    Inside a GEMM of one fixed shape, a row's product must not depend on
    the slot it occupies or on the other rows of the block.  BLAS builds do
    *not* promise this across shapes (a row's bits change as the row count
    crosses small-matrix thresholds), which is why every block has the same
    shape.  If this fails on a new BLAS build, grouped == solo adaptation
    breaks at the real shapes.
    """

    @pytest.mark.parametrize(
        "weight,frame_rows",
        [pytest.param(w, f, id=name) for name, w, f in _posecnn_base_products()],
    )
    def test_row_is_slot_and_co_row_invariant(self, rng, weight, frame_rows):
        height = backend.FOLD_FRAMES * frame_rows
        probe = rng.normal(size=weight.shape[0])
        # FOLD_FRAMES blocks; block j holds the probe in every slot s with
        # s % FOLD_FRAMES == j, random rows elsewhere: together the blocks
        # put the probe in every slot of a block.
        rows = rng.normal(size=(backend.FOLD_FRAMES, height, weight.shape[0]))
        slots = np.arange(height)
        for j in range(backend.FOLD_FRAMES):
            rows[j, slots % backend.FOLD_FRAMES == j] = probe
        folded = backend._fold_product(rows.reshape(1, -1, weight.shape[0]), weight, frame_rows)
        folded = folded.reshape(backend.FOLD_FRAMES, height, -1)
        probes = np.stack(
            [folded[j, slots % backend.FOLD_FRAMES == j] for j in range(backend.FOLD_FRAMES)]
        )
        solo = backend._fold_product(probe[None, None], weight, frame_rows)[0, 0]
        np.testing.assert_array_equal(probes, np.broadcast_to(solo, probes.shape))
