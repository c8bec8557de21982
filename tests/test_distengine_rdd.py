"""Unit tests for the simulated RDD and runtime."""

import numpy as np
import pytest

from repro.distengine import (
    ClusterConfig,
    SimulatedRuntime,
    TransferKind,
    estimate_bytes,
)


@pytest.fixture
def runtime():
    return SimulatedRuntime(ClusterConfig(n_machines=4, cores_per_machine=2))


class TestParallelize:
    def test_partition_count(self, runtime):
        rdd = runtime.parallelize(list(range(10)), n_partitions=3)
        assert rdd.n_partitions == 3
        assert rdd.count() == 10

    def test_balanced_partitions(self, runtime):
        rdd = runtime.parallelize(list(range(10)), n_partitions=3)
        sizes = [len(p) for p in rdd.glom()]
        assert sorted(sizes) == [3, 3, 4]

    def test_order_preserved(self, runtime):
        rdd = runtime.parallelize(list(range(10)), n_partitions=3)
        assert rdd.collect() == list(range(10))

    def test_default_partitions_is_total_slots(self, runtime):
        rdd = runtime.parallelize(list(range(100)))
        assert rdd.n_partitions == runtime.config.total_slots

    def test_empty_input(self, runtime):
        rdd = runtime.parallelize([], n_partitions=4)
        assert rdd.count() == 0
        assert rdd.collect() == []

    def test_invalid_partition_count(self, runtime):
        with pytest.raises(ValueError):
            runtime.parallelize([1], n_partitions=0)

    def test_from_partitions(self, runtime):
        rdd = runtime.from_partitions([[1, 2], [3]])
        assert rdd.n_partitions == 2
        assert rdd.collect() == [1, 2, 3]


class TestTransformations:
    def test_map(self, runtime):
        rdd = runtime.parallelize([1, 2, 3], n_partitions=2)
        assert rdd.map(lambda x: x * 10).collect() == [10, 20, 30]

    def test_map_partitions_with_index(self, runtime):
        rdd = runtime.parallelize([1, 2, 3, 4], n_partitions=2)
        tagged = rdd.map_partitions_with_index(
            lambda index, items: [(index, item) for item in items]
        ).collect()
        assert tagged == [(0, 1), (0, 2), (1, 3), (1, 4)]

    def test_stages_recorded(self, runtime):
        rdd = runtime.parallelize([1, 2, 3], n_partitions=2)
        rdd.map(lambda x: x, name="my-stage").collect()
        assert any(stage.name == "my-stage" for stage in runtime.stages)
        stage = next(s for s in runtime.stages if s.name == "my-stage")
        assert stage.n_tasks == 2

    def test_persist_returns_self(self, runtime):
        rdd = runtime.parallelize([1], n_partitions=1)
        assert rdd.persist() is rdd


class TestActions:
    def test_reduce(self, runtime):
        rdd = runtime.parallelize([1, 2, 3, 4], n_partitions=2)
        assert rdd.reduce(lambda x, y: x + y) == 10

    def test_reduce_empty_raises(self, runtime):
        with pytest.raises(ValueError):
            runtime.parallelize([], n_partitions=2).reduce(lambda x, y: x)

    def test_collect_records_bytes(self, runtime):
        rdd = runtime.parallelize([np.ones(1000)], n_partitions=1)
        rdd.collect()
        assert runtime.ledger.bytes_of_kind(TransferKind.COLLECT) >= 8000


class TestBroadcast:
    def test_value_round_trip(self, runtime):
        broadcast = runtime.broadcast({"a": 1}, name="config")
        assert broadcast.value == {"a": 1}

    def test_bytes_metered(self, runtime):
        runtime.broadcast(np.ones(1000), name="big")
        assert runtime.ledger.bytes_of_kind(TransferKind.BROADCAST) >= 8000


class TestSimulatedTime:
    def test_more_machines_never_slower(self, runtime):
        rdd = runtime.parallelize(list(range(64)), n_partitions=16)
        rdd.map(lambda x: sum(range(2000))).count()
        t4 = runtime.simulated_time(4)
        t16 = runtime.simulated_time(16)
        assert t16 <= t4 + 1e-9

    def test_broadcast_cost_scales_with_machines(self):
        config = ClusterConfig(
            n_machines=4, cores_per_machine=1, network_bytes_per_sec=1e3,
            task_launch_overhead_sec=0.0,
        )
        runtime = SimulatedRuntime(config)
        runtime.broadcast(np.ones(125), name="x")  # 1000 bytes -> 1 s/machine
        assert runtime.simulated_time(2) == pytest.approx(2.0)
        assert runtime.simulated_time(4) == pytest.approx(4.0)

    def test_invalid_machine_count(self, runtime):
        with pytest.raises(ValueError):
            runtime.simulated_time(0)

    def test_report_fields(self, runtime):
        rdd = runtime.parallelize([1, 2, 3], n_partitions=2)
        rdd.map(lambda x: x).collect()
        runtime.broadcast([1, 2, 3])
        report = runtime.report()
        assert report.n_stages == 1
        assert report.n_machines == 4
        assert report.simulated_time > 0
        assert report.network_bytes == (
            report.shuffle_bytes + report.broadcast_bytes
            + report.collect_bytes + report.task_bytes
        )

    def test_reset(self, runtime):
        rdd = runtime.parallelize([1], n_partitions=1)
        rdd.map(lambda x: x).collect()
        runtime.reset()
        assert not runtime.stages
        assert runtime.ledger.total_bytes == 0


class TestClusterConfig:
    def test_total_slots(self):
        assert ClusterConfig(n_machines=3, cores_per_machine=4).total_slots == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_machines": 0},
            {"cores_per_machine": 0},
            {"network_bytes_per_sec": 0},
            {"task_launch_overhead_sec": -1},
            {"driver_latency_sec": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestEstimateBytes:
    def test_numpy_exact(self):
        assert estimate_bytes(np.zeros(10, dtype=np.float64)) == 80

    def test_scalars(self):
        assert estimate_bytes(3) == 8
        assert estimate_bytes(2.5) == 8
        assert estimate_bytes(True) == 8

    def test_none_is_free(self):
        assert estimate_bytes(None) == 0

    def test_containers_recursive(self):
        assert estimate_bytes([np.zeros(2), np.zeros(3)]) == 16 + 24 + 8

    def test_string(self):
        assert estimate_bytes("abc") == 3

    def test_bitmatrix_uses_words(self):
        from repro.bitops import BitMatrix

        matrix = BitMatrix.zeros(4, 100)  # 4 rows x 2 words x 8 bytes
        assert estimate_bytes(matrix) == 64
