"""Tests for the SGD and Adam optimizers."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import nn
from repro.nn.layers import Parameter
from repro.nn.tensor import Tensor

from .conftest import ReferenceAdam, bits


def quadratic_loss(param: Parameter, target: np.ndarray) -> Tensor:
    diff = param - Tensor(target)
    return (diff * diff).sum()


class TestOptimizerBase:
    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_non_positive_lr_raises(self):
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(2))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        opt = nn.SGD([p], lr=0.1)
        quadratic_loss(p, np.zeros(3)).backward()
        assert p.grad is not None
        opt.zero_grad()
        assert p.grad is None

    def test_step_skips_parameters_without_gradients(self):
        p = Parameter(np.ones(2))
        opt = nn.SGD([p], lr=0.5)
        opt.step()  # no gradient computed — should be a no-op
        np.testing.assert_allclose(p.data, 1.0)


class TestSGD:
    def test_converges_on_quadratic(self):
        target = np.array([1.0, -2.0, 3.0])
        p = Parameter(np.zeros(3))
        opt = nn.SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p, target).backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_momentum_accelerates(self):
        target = np.array([5.0])

        def run(momentum):
            p = Parameter(np.zeros(1))
            opt = nn.SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_loss(p, target).backward()
                opt.step()
            return abs(p.data[0] - target[0])

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        # Zero task gradient: only decay acts.
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_invalid_momentum_raises(self):
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)

    def test_state_dict_roundtrip(self):
        p = Parameter(np.zeros(2))
        opt = nn.SGD([p], lr=0.1, momentum=0.9)
        quadratic_loss(p, np.ones(2)).backward()
        opt.step()
        state = opt.state_dict()
        fresh = nn.SGD([p], lr=0.5, momentum=0.5)
        fresh.load_state_dict(state)
        assert fresh.lr == pytest.approx(0.1)
        assert fresh.momentum == pytest.approx(0.9)
        np.testing.assert_allclose(fresh._velocity[0], opt._velocity[0])


class TestAdam:
    def test_converges_on_quadratic(self):
        target = np.array([2.0, -1.0])
        p = Parameter(np.zeros(2))
        opt = nn.Adam([p], lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p, target).backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_trains_small_network_below_initial_loss(self, rng):
        model = nn.Sequential(nn.Linear(5, 16, rng=rng), nn.ReLU(), nn.Linear(16, 3, rng=rng))
        opt = nn.Adam(model.parameters(), lr=1e-2)
        x = Tensor(rng.normal(size=(32, 5)))
        y = Tensor(rng.normal(size=(32, 3)))
        initial = nn.l1_loss(model(x), y).item()
        for _ in range(60):
            opt.zero_grad()
            loss = nn.l1_loss(model(x), y)
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * initial

    def test_first_step_magnitude_bounded_by_lr(self):
        p = Parameter(np.array([0.0]))
        opt = nn.Adam([p], lr=0.01)
        p.grad = np.array([1000.0])
        opt.step()
        # Adam normalizes by the gradient magnitude, so the first update is ~lr.
        assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-3)

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            nn.Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.9))

    def test_weight_decay(self):
        p = Parameter(np.array([2.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 2.0

    def test_state_dict_roundtrip_preserves_step_count(self):
        p = Parameter(np.zeros(2))
        opt = nn.Adam([p], lr=0.01)
        for _ in range(3):
            opt.zero_grad()
            quadratic_loss(p, np.ones(2)).backward()
            opt.step()
        state = opt.state_dict()
        fresh = nn.Adam([p], lr=0.01)
        fresh.load_state_dict(state)
        assert fresh._step == 3
        np.testing.assert_allclose(fresh._m[0], opt._m[0])
        np.testing.assert_allclose(fresh._v[0], opt._v[0])


class TestAdamArithmetic:
    """The scratch-buffer step is the reference expression, bit for bit."""

    SHAPES = [(512, 2048), (57, 512), (32, 16, 3, 3), (57,), (1,)]

    def twin_parameters(self, rng):
        data = [rng.normal(size=shape) for shape in self.SHAPES]
        return [Parameter(d.copy()) for d in data], [Parameter(d.copy()) for d in data]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_steps_equal_reference_expression_bitwise(self, weight_decay):
        rng = np.random.default_rng(17)
        params, reference_params = self.twin_parameters(rng)
        adam = nn.Adam(params, lr=3e-3, weight_decay=weight_decay)
        reference = ReferenceAdam(reference_params, lr=3e-3, weight_decay=weight_decay)
        for step in range(6):
            for param, reference_param in zip(params, reference_params):
                grad = rng.normal(scale=10.0 ** rng.integers(-4, 2), size=param.data.shape)
                # a parameter without a gradient keeps its value and moments
                keep = step == 2 and param.data.ndim == 1
                param.grad = None if keep else grad.copy()
                reference_param.grad = None if keep else grad.copy()
            adam.step()
            reference.step()
            for param, reference_param in zip(params, reference_params):
                assert bits(param.data) == bits(reference_param.data)
            for ours, theirs in zip(adam._m + adam._v, reference._m + reference._v):
                assert bits(ours) == bits(theirs)

    def test_step_rebinds_parameter_data(self):
        param = Parameter(np.ones(4))
        held = param.data
        opt = nn.Adam([param], lr=0.1)
        param.grad = np.full(4, 2.0)
        opt.step()
        assert param.data is not held
        np.testing.assert_array_equal(held, 1.0)
        assert not np.shares_memory(param.data, opt._scratch[0])

    def test_state_dict_keys_unchanged(self):
        opt = nn.Adam([Parameter(np.zeros(3))], lr=0.01)
        assert set(opt.state_dict()) == {"lr", "betas", "eps", "weight_decay", "step", "m", "v"}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_resume_from_state_dict_matches_uninterrupted_run(self, weight_decay):
        rng = np.random.default_rng(5)
        grads = [[rng.normal(size=shape) for shape in ((6, 4), (4,))] for _ in range(8)]

        def run(params, opt, steps):
            for step_grads in steps:
                for param, grad in zip(params, step_grads):
                    param.grad = grad.copy()
                opt.step()

        start = [rng.normal(size=(6, 4)), rng.normal(size=(4,))]
        through = [Parameter(d.copy()) for d in start]
        through_opt = nn.Adam(through, lr=0.02, weight_decay=weight_decay)
        run(through, through_opt, grads)

        first = [Parameter(d.copy()) for d in start]
        first_opt = nn.Adam(first, lr=0.02, weight_decay=weight_decay)
        run(first, first_opt, grads[:3])
        state = pickle.loads(pickle.dumps(first_opt.state_dict()))
        resumed = [Parameter(p.data.copy()) for p in first]
        resumed_opt = nn.Adam(resumed, lr=0.5)
        resumed_opt.load_state_dict(state)
        assert resumed_opt.lr == 0.02
        run(resumed, resumed_opt, grads[3:])
        for ours, theirs in zip(resumed, through):
            assert bits(ours.data) == bits(theirs.data)
