"""Tests of the serving metrics surface."""

from __future__ import annotations

import pytest

from repro.serve import ServeMetrics, percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.0) == 1
        assert percentile(values, 0.5) == 51  # nearest rank over 100 samples
        assert percentile(values, 1.0) == 100

    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServeMetrics:
    @pytest.fixture
    def clock(self):
        class _Clock:
            time = 0.0

            def __call__(self) -> float:
                return self.time

        return _Clock()

    def test_latency_percentiles(self, clock):
        metrics = ServeMetrics(clock=clock)
        for latency_ms in [1.0, 2.0, 3.0, 4.0, 100.0]:
            metrics.record_completion(latency_ms / 1000.0)
        assert metrics.latency_p50_ms == pytest.approx(3.0)
        assert metrics.latency_p95_ms == pytest.approx(100.0)

    def test_latency_window_is_bounded(self, clock):
        metrics = ServeMetrics(latency_window=4, clock=clock)
        for latency in [10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0]:
            metrics.record_completion(latency)
        # Only the last four latencies remain in the window.
        assert metrics.latency_p95_ms == pytest.approx(1000.0)

    def test_throughput_uses_wall_clock(self, clock):
        metrics = ServeMetrics(clock=clock)
        metrics.record_submit(queue_depth=1)
        for _ in range(10):
            metrics.record_completion(0.001)
        clock.time = 2.0
        metrics.record_completion(0.001)
        assert metrics.throughput_fps == pytest.approx(11 / 2.0)

    def test_batch_statistics(self, clock):
        metrics = ServeMetrics(clock=clock)
        metrics.record_flush(4)
        metrics.record_flush(8)
        assert metrics.mean_batch_size == pytest.approx(6.0)
        assert metrics.max_batch_seen == 8

    def test_snapshot_contains_every_surface(self, clock):
        metrics = ServeMetrics(clock=clock)
        snapshot = metrics.snapshot(queue_depth=3)
        for key in (
            "submitted",
            "completed",
            "dropped",
            "flushes",
            "mean_batch_size",
            "latency_p50_ms",
            "latency_p95_ms",
            "throughput_fps",
            "queue_depth",
        ):
            assert key in snapshot
        assert snapshot["queue_depth"] == 3


class TestAggregate:
    @pytest.fixture
    def clock(self):
        class _Clock:
            time = 0.0

            def __call__(self) -> float:
                return self.time

        return _Clock()

    def test_counters_sum_and_marks_take_max(self, clock):
        a = ServeMetrics(clock=clock)
        b = ServeMetrics(clock=clock)
        a.record_submit(queue_depth=2)
        a.record_flush(2)
        b.record_submit(queue_depth=7)
        b.record_submit(queue_depth=1)
        b.record_flush(4)
        merged = ServeMetrics.aggregate([a, b])
        assert merged["submitted"] == 3
        assert merged["flushes"] == 2
        assert merged["mean_batch_size"] == pytest.approx(3.0)
        assert merged["max_batch_seen"] == 4
        assert merged["max_queue_depth_seen"] == 7

    def test_latency_percentiles_pool_across_shards(self, clock):
        a = ServeMetrics(clock=clock)
        b = ServeMetrics(clock=clock)
        for value in (0.001, 0.002):
            a.record_completion(value)
        for value in (0.003, 0.100):
            b.record_completion(value)
        merged = ServeMetrics.aggregate([a, b])
        # Nearest-rank p50 over the pooled window [1, 2, 3, 100] ms.
        assert merged["latency_p50_ms"] == pytest.approx(3.0)
        assert merged["latency_p95_ms"] == pytest.approx(100.0)
        assert merged["completed"] == 4

    def test_throughput_spans_overlapping_shard_clocks(self, clock):
        a = ServeMetrics(clock=clock)
        b = ServeMetrics(clock=clock)
        clock.time = 0.0
        a.record_submit(queue_depth=0)
        b.record_submit(queue_depth=0)
        clock.time = 2.0
        a.record_completion(0.5)
        b.record_completion(0.5)
        merged = ServeMetrics.aggregate([a, b])
        # 2 completions over 2 shared seconds — not 2 over 4 summed seconds.
        assert merged["throughput_fps"] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ServeMetrics.aggregate([])


class TestPrometheusExport:
    @pytest.fixture
    def clock(self):
        class _Clock:
            time = 0.0

            def __call__(self) -> float:
                return self.time

        return _Clock()

    def test_counters_gauges_and_summary_present(self, clock):
        metrics = ServeMetrics(clock=clock)
        metrics.record_submit(queue_depth=1)
        metrics.record_flush(1)
        metrics.record_completion(0.004)
        text = metrics.to_prometheus(queue_depth=0)
        assert "# TYPE fuse_serve_requests_submitted_total counter" in text
        assert "fuse_serve_requests_submitted_total 1" in text
        assert "# TYPE fuse_serve_queue_depth gauge" in text
        assert "# TYPE fuse_serve_request_latency_seconds summary" in text
        assert 'fuse_serve_request_latency_seconds{quantile="0.5"} 0.004' in text
        assert "fuse_serve_request_latency_seconds_sum 0.004" in text
        assert "fuse_serve_request_latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_router_owned_series_are_not_exported_per_shard(self, clock):
        """Request timeouts and retries happen at the router, which exports
        them as ``fuse_router_*``; a shard has no such counter to report."""
        metrics = ServeMetrics(clock=clock)
        metrics.record_submit(queue_depth=1)
        text = metrics.to_prometheus(queue_depth=0)
        assert "fuse_serve_request_timeouts_total" not in text
        assert "fuse_serve_retries_total" not in text
        assert "fuse_serve_restarts_total 0" in text
        assert "request_timeouts" not in metrics.snapshot()
        assert "retries" not in metrics.state_dict()

    def test_labels_attach_to_every_sample(self, clock):
        metrics = ServeMetrics(clock=clock)
        metrics.record_completion(0.002)
        text = metrics.to_prometheus(labels={"shard": "3"})
        assert 'fuse_serve_requests_completed_total{shard="3"} 1' in text
        assert 'fuse_serve_request_latency_seconds{shard="3",quantile="0.95"}' in text
        assert 'fuse_serve_request_latency_seconds_count{shard="3"} 1' in text

    def test_multi_instance_exposition_groups_families(self, clock):
        from repro.serve import prometheus_exposition

        a, b = ServeMetrics(clock=clock), ServeMetrics(clock=clock)
        a.record_completion(0.001)
        text = prometheus_exposition(
            [({"shard": "0"}, a, 2), ({"shard": "1"}, b, 0)]
        )
        assert text.count("# TYPE fuse_serve_requests_completed_total counter") == 1
        assert 'fuse_serve_requests_completed_total{shard="0"} 1' in text
        assert 'fuse_serve_requests_completed_total{shard="1"} 0' in text
        assert 'fuse_serve_queue_depth{shard="0"} 2' in text

    def test_label_values_are_escaped(self, clock):
        metrics = ServeMetrics(clock=clock)
        text = metrics.to_prometheus(labels={"host": 'node"1\\a\nb'})
        assert 'host="node\\"1\\\\a\\nb"' in text


class TestAggregateSnapshots:
    """Cluster-side aggregation: plain snapshot dicts, heterogeneous keys."""

    @pytest.fixture
    def clock(self):
        class _Clock:
            time = 0.0

            def __call__(self) -> float:
                return self.time

        return _Clock()

    def test_snapshot_dicts_merge_like_instances(self, clock):
        a, b = ServeMetrics(clock=clock), ServeMetrics(clock=clock)
        a.record_submit(queue_depth=2)
        a.record_flush(2)
        a.record_completion(0.004)
        b.record_submit(queue_depth=7)
        b.record_flush(4)
        b.record_completion(0.002)
        merged = ServeMetrics.aggregate([a.snapshot(), b.snapshot()])
        assert merged["submitted"] == 2
        assert merged["flushes"] == 2
        assert merged["mean_batch_size"] == pytest.approx(3.0)
        assert merged["max_queue_depth_seen"] == 7

    def test_pre_tier_snapshots_tolerate_missing_keys(self, clock):
        """A backend predating the adapter-tier counters reports a shorter
        snapshot; aggregation must default the absent keys, not raise."""
        modern = ServeMetrics(clock=clock)
        modern.record_submit(queue_depth=1)
        modern.record_adapter_access("hot")
        legacy = {
            key: value
            for key, value in ServeMetrics(clock=clock).snapshot().items()
            if not key.startswith("adapter_")
        }
        legacy["submitted"] = 5
        merged = ServeMetrics.aggregate([modern.snapshot(), legacy])
        assert merged["submitted"] == 6
        assert merged["adapter_hot_hits"] == 1
        assert merged["adapter_tier_hit_rate"] == pytest.approx(1.0)

    def test_mixed_instances_and_snapshots(self, clock):
        instance = ServeMetrics(clock=clock)
        instance.record_submit(queue_depth=0)
        merged = ServeMetrics.aggregate([instance, {"submitted": 4, "completed": 4}])
        assert merged["submitted"] == 5
        assert merged["completed"] == 4

    def test_latency_percentiles_weight_by_completions(self, clock):
        a, b = ServeMetrics(clock=clock), ServeMetrics(clock=clock)
        a.record_completion(0.010)  # p50 = 10ms, 1 completion
        for _ in range(3):
            b.record_completion(0.002)  # p50 = 2ms, 3 completions
        merged = ServeMetrics.aggregate([a.snapshot(), b.snapshot()])
        assert merged["latency_p50_ms"] == pytest.approx((10.0 + 3 * 2.0) / 4)

    def test_snapshot_throughput_sums(self, clock):
        a, b = ServeMetrics(clock=clock), ServeMetrics(clock=clock)
        a.record_submit(queue_depth=0)
        b.record_submit(queue_depth=0)
        clock.time = 2.0
        a.record_completion(0.5)
        b.record_completion(0.5)
        merged = ServeMetrics.aggregate([a.snapshot(), b.snapshot()])
        # Independent processes with private clocks: sum, no shared wall.
        assert merged["throughput_fps"] == pytest.approx(1.0)

    def test_extra_keys_are_carried(self, clock):
        merged = ServeMetrics.aggregate(
            [{"submitted": 1, "router_frames_routed": 9}, {"submitted": 2}]
        )
        assert merged["router_frames_routed"] == 9


class TestMergeExpositions:
    @pytest.fixture
    def clock(self):
        class _Clock:
            time = 0.0

            def __call__(self) -> float:
                return self.time

        return _Clock()

    def test_families_group_under_one_header(self, clock):
        from repro.serve import merge_expositions

        a, b = ServeMetrics(clock=clock), ServeMetrics(clock=clock)
        a.record_completion(0.001)
        b.record_completion(0.002)
        merged = merge_expositions(
            [
                (a.to_prometheus(), {"instance": "b0"}),
                (b.to_prometheus(), {"instance": "b1"}),
            ]
        )
        assert merged.count("# TYPE fuse_serve_requests_completed_total counter") == 1
        assert 'fuse_serve_requests_completed_total{instance="b0"} 1' in merged
        assert 'fuse_serve_requests_completed_total{instance="b1"} 1' in merged

    def test_labels_merge_with_existing_ones(self, clock):
        from repro.serve import merge_expositions

        metrics = ServeMetrics(clock=clock)
        metrics.record_completion(0.001)
        text = metrics.to_prometheus(labels={"shard": "0"})
        merged = merge_expositions([(text, {"instance": "b0"})])
        assert 'fuse_serve_requests_completed_total{instance="b0",shard="0"} 1' in merged

    def test_unlabelled_parts_pass_through(self, clock):
        from repro.serve import merge_expositions

        router_text = (
            "# HELP fuse_router_frames_routed_total Frames routed.\n"
            "# TYPE fuse_router_frames_routed_total counter\n"
            "fuse_router_frames_routed_total 3\n"
        )
        merged = merge_expositions(
            [(ServeMetrics(clock=clock).to_prometheus(), {"instance": "b0"}),
             (router_text, None)]
        )
        assert "fuse_router_frames_routed_total 3" in merged
        assert merged.endswith("\n")

    def test_summary_style_suffixes_stay_in_their_family(self, clock):
        from repro.serve import merge_expositions

        part = (
            "# HELP fuse_latency_ms Latency.\n"
            "# TYPE fuse_latency_ms summary\n"
            "fuse_latency_ms_sum 4.0\n"
            "fuse_latency_ms_count 2\n"
        )
        merged = merge_expositions([(part, {"instance": "b0"}), (part, {"instance": "b1"})])
        assert merged.count("# TYPE fuse_latency_ms summary") == 1
        assert 'fuse_latency_ms_sum{instance="b0"} 4.0' in merged
        assert 'fuse_latency_ms_count{instance="b1"} 2' in merged

    def test_empty_parts_rejected(self):
        from repro.serve import merge_expositions

        with pytest.raises(ValueError):
            merge_expositions([])
