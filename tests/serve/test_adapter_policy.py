"""The unified :class:`AdapterPolicy` API.

One frozen policy object travels from the CLI / :class:`ServeConfig` through
every server down to the :class:`AdapterRegistry`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.core.finetune import FineTuneConfig
from repro.serve import AdapterPolicy, PoseServer, ServeConfig
from repro.serve.sharded import ProcessShardedPoseServer
from repro.serve.worker import ShardFactory


class TestPolicyValidation:
    def test_defaults_mirror_the_legacy_finetune_defaults(self):
        policy = AdapterPolicy()
        legacy = FineTuneConfig(epochs=5)
        assert policy.scope == legacy.scope == "all"
        assert policy.epochs == legacy.epochs
        assert policy.learning_rate == legacy.learning_rate
        assert policy.batch_size == legacy.batch_size
        assert policy.loss == legacy.loss
        assert policy.seed == legacy.seed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scope": "lorax"},
            {"rank": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"loss": "hinge"},
            {"hot_capacity": 0},
            {"warm_capacity": -1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdapterPolicy(**kwargs)

    def test_frozen(self):
        policy = AdapterPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.scope = "last"

    def test_spill_dir_accepts_path_and_normalizes_to_str(self, tmp_path):
        policy = AdapterPolicy(spill_dir=tmp_path / "spill")
        assert isinstance(policy.spill_dir, str)
        assert policy.spill_path() == tmp_path / "spill"
        assert AdapterPolicy().spill_path() is None

    def test_with_spill_subdir(self, tmp_path):
        policy = AdapterPolicy(spill_dir=tmp_path)
        sharded = policy.with_spill_subdir("shard007")
        assert sharded.spill_path() == tmp_path / "shard007"
        assert policy.spill_path() == tmp_path  # original untouched
        assert AdapterPolicy().with_spill_subdir("shard007").spill_dir is None

    def test_dict_round_trip(self, tmp_path):
        policy = AdapterPolicy(
            scope="lora", rank=8, epochs=3, hot_capacity=10, spill_dir=tmp_path
        )
        encoded = policy.to_dict()
        assert encoded["scope"] == "lora" and encoded["rank"] == 8
        assert AdapterPolicy.from_dict(encoded) == policy
        assert AdapterPolicy.from_dict({**encoded, "unknown_field": 1}) == policy


class TestPolicyThreading:
    def test_serve_config_adapter_reaches_the_registry(self, estimator):
        policy = AdapterPolicy(scope="last", epochs=1)
        server = PoseServer(estimator, ServeConfig(adapter=policy))
        assert server.policy is policy
        assert server.registry.policy is policy

    def test_explicit_policy_overrides_config_adapter(self, estimator):
        configured = AdapterPolicy(scope="last")
        explicit = AdapterPolicy(scope="all")
        server = PoseServer(
            estimator, ServeConfig(adapter=configured), policy=explicit
        )
        assert server.policy is explicit

    def test_sharded_server_splits_spill_dir_per_shard(self, estimator, tmp_path):
        """What each shard worker builds: its own spill subdirectory."""
        policy = AdapterPolicy(scope="last", epochs=1, spill_dir=tmp_path)
        factory = ShardFactory(estimator, ServeConfig(), policy=policy)
        for index in range(3):
            shard = factory.build(index)
            spill_dir = Path(tmp_path) / f"shard{index:03d}"
            assert shard.policy.spill_dir == str(spill_dir)
            assert spill_dir.is_dir()

    @pytest.mark.slow
    def test_process_sharded_policy_reaches_the_workers(self, estimator, tmp_path):
        policy = AdapterPolicy(scope="last", epochs=1, spill_dir=tmp_path)
        with ProcessShardedPoseServer(
            estimator, num_shards=2, policy=policy
        ) as server:
            assert server.policy is policy
            assert server.metrics_snapshot()["completed"] == 0
        # Each worker created its own shard-scoped spill directory.
        assert (tmp_path / "shard000").is_dir()
        assert (tmp_path / "shard001").is_dir()


class TestHelloHandshake:
    def test_hello_reports_the_adapter_policy(self, estimator, tmp_path):
        import asyncio

        from repro.serve import AsyncPoseClient, PoseFrontend

        policy = AdapterPolicy(scope="lora", rank=2, epochs=1)
        server = PoseServer(estimator, ServeConfig(adapter=policy))

        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(server, unix_path=path)
            await frontend.start()
            try:
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path)
                    return await client.hello()
            finally:
                await frontend.stop()

        hello = asyncio.run(body())
        assert hello["adapter_policy"]["scope"] == "lora"
        assert hello["adapter_policy"]["rank"] == 2
        assert AdapterPolicy.from_dict(hello["adapter_policy"]) == policy
