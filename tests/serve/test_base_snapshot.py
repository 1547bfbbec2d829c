"""One snapshot of the base weights per server, one adaptation step at a time.

A :class:`PoseServer` holds the caller's model and one snapshot of its
parameters, taken by the :class:`AdapterRegistry`; the server's base kernel
and every adaptation scope read that snapshot without copying it.  Pinned
here:

* the kernels' fully connected weights, the ``lora`` base, the ``last``
  head initialization and the ``all`` working clone are the snapshot's
  memory;
* the ``all`` working clone is bound to the snapshot again after an
  adaptation and after a served batch;
* building a server allocates one base parameter set (two before the
  snapshot was shared);
* mutating the model after a server is built changes neither its served
  bits nor any scope's adapted parameters;
* an adaptation keeps one mini-batch step's graph alive at a time, so a
  cohort's traced peak does not grow with the number of epochs.
"""

from __future__ import annotations

import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import FuseConfig, FusePoseEstimator
from repro.dataset.loader import ArrayDataset
from repro.serve import AdapterPolicy, AdapterRegistry, PoseServer, ServeConfig
from repro.serve.kernel import _LinearStep

from .conftest import make_frame

SCOPES = ("all", "last", "lora")


def _server(estimator, scope: str) -> PoseServer:
    policy = AdapterPolicy(scope=scope, rank=2, learning_rate=0.01)
    return PoseServer(estimator, ServeConfig(max_batch_size=8, adapter=policy))


def _calibration(seed: int, frames: int = 4) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(frames, 5, 8, 8)), 0.1 * rng.normal(size=(frames, 57)))


def _fc_weights(kernel):
    return [step.weight for step in kernel._steps if isinstance(step, _LinearStep)]


@contextmanager
def _traced():
    """Trace allocations for the block (leaving an outer trace running)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    gc.collect()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


class TestOneSnapshot:
    @pytest.mark.parametrize("scope", SCOPES)
    def test_kernels_read_the_registrys_base(self, estimator, scope):
        server = _server(estimator, scope)
        registry = server.registry
        base = registry.base_parameters
        fc = [array for array in base if array.ndim == 2]
        assert len(fc) == 2
        for weight, array in zip(_fc_weights(server.kernel), fc):
            assert np.shares_memory(weight, array)
        for array, param in zip(base, estimator.model.parameters()):
            assert not np.shares_memory(array, param.data)
            assert not array.flags.writeable
        if scope == "last":
            (trunk_fc,) = _fc_weights(registry._trunk_kernel)
            assert np.shares_memory(trunk_fc, fc[0])
            assert np.shares_memory(registry._head_init[0], fc[1])
        elif scope == "lora":
            assert all(t.data is array for t, array in zip(registry._lora_base, base))
        else:
            clone = registry._full_clone.parameters()
            assert all(p.data is array for p, array in zip(clone, base))

    def test_all_clone_is_bound_to_the_snapshot_after_adapting_and_serving(
        self, estimator
    ):
        server = _server(estimator, "all")
        registry = server.registry
        base = registry.base_parameters

        def bound_to_base() -> bool:
            params = registry._full_clone.parameters()
            return all(p.data is a and p.grad is None for p, a in zip(params, base))

        server.adapt_user("u", _calibration(0), epochs=1)
        assert bound_to_base()
        adapted = registry.parameters_for("u")
        assert not any(np.shares_memory(a, b) for a, b in zip(adapted, base))
        pending = server.enqueue("u", make_frame(np.random.default_rng(1)))
        server.flush()
        assert pending.result(flush=False).shape == (19, 3)
        assert bound_to_base()

    @pytest.mark.parametrize("scope", SCOPES)
    def test_building_a_server_allocates_one_base_parameter_set(self, estimator, scope):
        """Before the snapshot was shared, ``lora`` and ``last`` servers
        allocated 2.0 parameter sets (kernel copy plus the registry's own)."""
        base_bytes = sum(param.data.nbytes for param in estimator.model.parameters())
        with _traced():
            before = tracemalloc.get_traced_memory()[0]
            server = _server(estimator, scope)
            allocated = tracemalloc.get_traced_memory()[0] - before
        assert server.registry.scope == scope
        assert 1.0 <= allocated / base_bytes < 1.1

    @pytest.mark.parametrize("scope", SCOPES)
    def test_mutating_the_model_after_build_changes_nothing(self, scope):
        """Two identical estimators; one model is changed in place after its
        server is built.  Adaptation and serving read only the snapshot, so
        both servers adapt and serve bitwise alike."""
        servers = []
        for mutate in (False, True):
            estimator = FusePoseEstimator(FuseConfig(num_context_frames=1))
            server = _server(estimator, scope)
            if mutate:
                for param in estimator.model.parameters():
                    param.data += 1.0
            servers.append(server)
        rng = np.random.default_rng(2)
        frames = [make_frame(rng) for _ in range(3)]
        served = []
        for server in servers:
            server.adapt_user("adapted", _calibration(3), epochs=2)
            pending = [
                server.enqueue(user, frame) for user in ("adapted", "base") for frame in frames
            ]
            server.flush()
            served.append(
                (
                    server.registry.parameters_for("adapted"),
                    np.stack([p.result(flush=False) for p in pending]),
                )
            )
        (params_kept, joints_kept), (params_mutated, joints_mutated) = served
        for kept, mutated in zip(params_kept, params_mutated):
            np.testing.assert_array_equal(kept, mutated)
        np.testing.assert_array_equal(joints_kept, joints_mutated)


class TestOneStepWorkingSet:
    def test_lora_cohort_peak_does_not_grow_with_epochs(self, estimator):
        """16 users x 5 frames at rank 4, perfbench's onboarding cohort shape.
        While a finished step's graph lived through the next forward, the
        traced peak read 25.3 MB at 5 epochs against 19.4 MB at 1; with one
        step alive at a time both read 15.6 MB (5 epochs about 7 kB above
        1).  The 1% allowance covers that bookkeeping and stays far below
        one step's graph (5.9 MB)."""
        rng = np.random.default_rng(4)
        cohort = {
            f"u{k:02d}": ArrayDataset(
                rng.normal(size=(5, 5, 8, 8)), 0.1 * rng.normal(size=(5, 57))
            )
            for k in range(16)
        }
        policy = AdapterPolicy(scope="lora", rank=4, learning_rate=0.1)
        peaks = {}
        with _traced():
            for epochs in (1, 5):
                registry = AdapterRegistry(estimator.model, policy=policy)
                gc.collect()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                registry.adapt_many(cohort, epochs=epochs)
                peaks[epochs] = tracemalloc.get_traced_memory()[1] - start
                del registry
        assert peaks[5] <= 1.01 * peaks[1]
