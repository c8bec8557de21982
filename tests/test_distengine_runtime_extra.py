"""Additional runtime/cost-model tests (driver latency, report coherence)."""

import pytest

from repro.distengine import ClusterConfig, SimulatedRuntime


class TestDriverLatency:
    def test_driver_latency_is_machine_independent(self):
        config = ClusterConfig(
            n_machines=4, cores_per_machine=1,
            task_launch_overhead_sec=0.0, driver_latency_sec=1.0,
        )
        runtime = SimulatedRuntime(config)
        rdd = runtime.parallelize([1, 2, 3, 4], n_partitions=4)
        rdd.map(lambda x: x).count()
        # One stage: both machine counts pay the same 1 s driver latency.
        difference = runtime.simulated_time(1) - runtime.simulated_time(100)
        assert difference < 1.0  # only the (tiny) compute part shrank

    def test_driver_latency_counts_per_stage(self):
        # Each action materializes one more persisted step, so the three
        # maps dispatch as three fused stages of one transformation each.
        config = ClusterConfig(
            n_machines=1, cores_per_machine=1,
            task_launch_overhead_sec=0.0, driver_latency_sec=0.5,
        )
        runtime = SimulatedRuntime(config)
        rdd = runtime.parallelize([1], n_partitions=1)
        for _ in range(3):
            rdd = rdd.map(lambda x: x).persist()
            rdd.count()
        assert len(runtime.stages) == 3
        assert runtime.simulated_time(1) >= 1.5  # three stages x 0.5 s

    def test_fusion_pays_driver_latency_once(self):
        # The lazy planner's point: the same chain costs one round-trip.
        config = ClusterConfig(
            n_machines=1, cores_per_machine=1,
            task_launch_overhead_sec=0.0, driver_latency_sec=0.5,
        )
        runtime = SimulatedRuntime(config)
        rdd = runtime.parallelize([1], n_partitions=1)
        rdd.map(lambda x: x).map(lambda x: x).map(lambda x: x).count()
        assert len(runtime.stages) == 1
        assert 0.5 <= runtime.simulated_time(1) < 1.0

    def test_empty_stage_costs_nothing(self):
        runtime = SimulatedRuntime()
        runtime.record_stage("empty", [])
        assert runtime.simulated_time(4) == 0.0


class TestSpeedupShape:
    def test_speedup_saturates_with_driver_latency(self):
        # With a serial driver fraction, speed-up must flatten — the
        # Figure 7 shape the cost model exists to reproduce.
        config = ClusterConfig(
            n_machines=16, cores_per_machine=1,
            task_launch_overhead_sec=0.0, driver_latency_sec=0.05,
        )
        runtime = SimulatedRuntime(config)
        rdd = runtime.parallelize(list(range(64)), n_partitions=64)
        rdd.map(lambda x: sum(range(3000))).count()
        t1 = runtime.simulated_time(1)
        t4 = runtime.simulated_time(4)
        t64 = runtime.simulated_time(64)
        speedup_4 = t1 / t4
        speedup_64 = t1 / t64
        assert speedup_4 <= 4.0 + 1e-6
        assert speedup_64 < 64.0  # strictly sublinear
        # Diminishing returns: 64 machines give < 16x the 4-machine gain.
        assert speedup_64 / speedup_4 < 16.0

    def test_report_simulated_time_matches_method(self):
        runtime = SimulatedRuntime()
        rdd = runtime.parallelize([1, 2], n_partitions=2)
        rdd.map(lambda x: x).count()
        report = runtime.report(8)
        assert report.simulated_time == pytest.approx(runtime.simulated_time(8))


class TestResetRegression:
    """``reset()`` must leave no residue in any accounting channel.

    Regression for the network-bytes double-count class of bug: a
    broadcast-heavy workload run, reset, and re-run on the *same* runtime
    must report exactly the bytes of one run — ``_broadcast_base_bytes``,
    the ledger, the metrics registry, and the tracer all start over.
    """

    def _workload(self, runtime):
        runtime.broadcast([1] * 100, name="factors")
        rdd = runtime.parallelize(list(range(12)), n_partitions=3)
        return rdd.map(lambda x: x + 1).collect(name="gather")

    def test_network_bytes_not_double_counted_after_reset(self):
        runtime = SimulatedRuntime(ClusterConfig(tracing=True))
        self._workload(runtime)
        first = runtime.report()
        runtime.reset()
        self._workload(runtime)
        second = runtime.report()
        assert second.network_bytes == first.network_bytes
        assert second.shuffle_bytes == first.shuffle_bytes
        assert second.broadcast_bytes == first.broadcast_bytes
        assert second.collect_bytes == first.collect_bytes
        assert second.n_stages == first.n_stages

    def test_reset_clears_metrics_and_trace(self):
        runtime = SimulatedRuntime(ClusterConfig(tracing=True))
        self._workload(runtime)
        assert runtime.metrics.value("stages_total") == 1.0
        assert len(runtime.tracer) > 0
        runtime.reset()
        assert len(runtime.metrics) == 0
        assert len(runtime.tracer) == 0
        self._workload(runtime)
        assert runtime.metrics.value("stages_total") == 1.0

    def test_transfer_counter_matches_ledger_after_reset(self):
        runtime = SimulatedRuntime(ClusterConfig(tracing=True))
        self._workload(runtime)
        runtime.reset()
        self._workload(runtime)
        report = runtime.report()
        counted = sum(
            value
            for _labels, value in runtime.metrics.counters()
            .get("transfer_bytes_total", {})
            .items()
        )
        # Broadcast bytes in the report are per-machine; the ledger (and
        # the counter) store the single-copy base bytes.
        base_network = (
            report.shuffle_bytes
            + report.collect_bytes
            + report.task_bytes
            + report.broadcast_bytes // report.n_machines
        )
        assert counted == base_network
