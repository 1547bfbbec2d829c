"""HealthMonitor: debounced down/up transitions driven by fake probes."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.serve import HealthMonitor


class FakeFleet:
    """A scriptable probe target set: per-name health, failure modes."""

    def __init__(self, **health):
        self.health = dict(health)
        self.probed: list = []

    async def probe(self, name: str) -> bool:
        self.probed.append(name)
        state = self.health[name]
        if state == "raise":
            raise ConnectionError("backend gone")
        if state == "hang":
            await asyncio.sleep(60)
        return bool(state)


def run(coro):
    return asyncio.run(coro)


class TestDebounce:
    def test_one_failure_is_not_down(self):
        fleet = FakeFleet(b1=False)

        async def body():
            monitor = HealthMonitor(fleet.probe, failure_threshold=3)
            monitor.watch("b1")
            await monitor.check_now()
            await monitor.check_now()
            assert not monitor.is_down("b1")
            await monitor.check_now()
            assert monitor.is_down("b1")

        run(body())

    def test_success_resets_the_streak(self):
        fleet = FakeFleet(b1=False)

        async def body():
            monitor = HealthMonitor(fleet.probe, failure_threshold=2)
            monitor.watch("b1")
            await monitor.check_now()
            fleet.health["b1"] = True
            await monitor.check_now()  # streak resets
            fleet.health["b1"] = False
            await monitor.check_now()
            assert not monitor.is_down("b1")
            await monitor.check_now()
            assert monitor.is_down("b1")

        run(body())


class TestTransitions:
    def test_callbacks_fire_once_per_transition(self):
        fleet = FakeFleet(b1=False)
        events: list = []

        async def body():
            monitor = HealthMonitor(
                fleet.probe,
                failure_threshold=1,
                on_down=lambda name: events.append(("down", name)),
                on_up=lambda name: events.append(("up", name)),
            )
            monitor.watch("b1")
            await monitor.check_now()
            await monitor.check_now()  # still down: no duplicate callback
            fleet.health["b1"] = True
            await monitor.check_now()
            assert monitor.down == []

        run(body())
        assert events == [("down", "b1"), ("up", "b1")]

    def test_async_callbacks_are_awaited(self):
        fleet = FakeFleet(b1="raise")
        events: list = []

        async def on_down(name):
            await asyncio.sleep(0)
            events.append(name)

        async def body():
            monitor = HealthMonitor(fleet.probe, failure_threshold=1, on_down=on_down)
            monitor.watch("b1")
            await monitor.check_now()

        run(body())
        assert events == ["b1"]

    def test_raise_and_hang_both_count_as_failures(self):
        fleet = FakeFleet(b1="raise", b2="hang", b3=True)

        async def body():
            monitor = HealthMonitor(fleet.probe, timeout_s=0.05, failure_threshold=1)
            for name in ("b1", "b2", "b3"):
                monitor.watch(name)
            results = await monitor.check_now()
            assert results == {"b1": False, "b2": False, "b3": True}
            assert monitor.down == ["b1", "b2"]

        run(body())


def health_lines(caplog) -> list:
    return [
        json.loads(record.getMessage())
        for record in caplog.records
        if record.name == "repro.serve.health"
    ]


class TestTransitionLog:
    def test_down_then_up_logs_two_lines_with_the_reason(self, caplog):
        """A raising probe is declared down with its error, then up once."""
        fleet = FakeFleet(b1="raise")

        async def body():
            monitor = HealthMonitor(fleet.probe, failure_threshold=3)
            monitor.watch("b1")
            for _ in range(3):
                await monitor.check_now()
            fleet.health["b1"] = True
            await monitor.check_now()
            await monitor.check_now()
            assert not monitor.is_down("b1")

        with caplog.at_level(logging.WARNING, logger="repro.serve.health"):
            run(body())
        assert health_lines(caplog) == [
            {
                "event": "target_down",
                "target": "b1",
                "failures": 3,
                "reason": "ConnectionError: backend gone",
            },
            {"event": "target_up", "target": "b1"},
        ]

    def test_timeout_falsy_and_request_failure_reasons(self, caplog):
        fleet = FakeFleet(b1="hang", b2=False, b3=True)

        async def body():
            monitor = HealthMonitor(fleet.probe, timeout_s=0.05, failure_threshold=1)
            for name in ("b1", "b2", "b3"):
                monitor.watch(name)
            await monitor.check_now()
            assert await monitor.record_failure("b3")

        with caplog.at_level(logging.WARNING, logger="repro.serve.health"):
            run(body())
        reasons = {line["target"]: line["reason"] for line in health_lines(caplog)}
        assert reasons == {"b1": "timeout", "b2": "falsy reply", "b3": "request_failure"}


class TestTargetSet:
    def test_unwatch_forgets_state(self):
        fleet = FakeFleet(b1=False)

        async def body():
            monitor = HealthMonitor(fleet.probe, failure_threshold=1)
            monitor.watch("b1")
            await monitor.check_now()
            assert monitor.is_down("b1")
            monitor.unwatch("b1")
            assert monitor.targets == [] and monitor.down == []

        run(body())

    def test_watch_is_idempotent(self):
        fleet = FakeFleet(b1=False)

        async def body():
            monitor = HealthMonitor(fleet.probe, failure_threshold=2)
            monitor.watch("b1")
            await monitor.check_now()
            monitor.watch("b1")  # must not reset the failure streak
            await monitor.check_now()
            assert monitor.is_down("b1")

        run(body())


class TestLifecycle:
    def test_background_loop_probes_on_interval(self):
        fleet = FakeFleet(b1=True)

        async def body():
            monitor = HealthMonitor(fleet.probe, interval_s=0.01)
            monitor.watch("b1")
            monitor.start()
            with pytest.raises(RuntimeError, match="already running"):
                monitor.start()
            for _ in range(100):
                await asyncio.sleep(0.01)
                if monitor.rounds >= 2:
                    break
            await monitor.stop()
            await monitor.stop()  # idempotent
            assert monitor.rounds >= 2

        run(body())

    def test_parameters_validated(self):
        fleet = FakeFleet()
        with pytest.raises(ValueError):
            HealthMonitor(fleet.probe, interval_s=0)
        with pytest.raises(ValueError):
            HealthMonitor(fleet.probe, failure_threshold=0)
