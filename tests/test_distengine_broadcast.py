"""Tests for the broadcast-handle comms plane.

The contract: ``runtime.broadcast`` returns a first-class, content-addressed
:class:`BroadcastHandle`; pickling a handle drops the value (process workers
resolve it from their resident store, which the backend fills once per
worker and the runtime empties on close); task payloads that embed a
handle cost ~32 wire bytes instead of the value's full size; and the
delta-only factor-update path produces bit-identical factors and error
traces on every backend while shipping no more than a fifth of the
per-column bytes recorded for closure-capture tasks (8848 B at rank 8,
dim 128; ``BENCH_update.json`` at the commit that removed them).
"""

import pickle

import numpy as np
import pytest

from repro.core import DbtfConfig, dbtf, decompose
from repro.distengine import (
    BroadcastHandle,
    ClusterConfig,
    RuntimeFactory,
    SimulatedRuntime,
)
from repro.distengine.broadcast import _STORE, clear_store
from repro.distengine.shuffle import HANDLE_WIRE_BYTES, estimate_bytes
from repro.tensor import SparseBoolTensor, planted_tensor

from .sweep_oracle import basis, predicted_rounds, sweep, unfolded


class _AddBroadcastSum:
    """Module-level task reading a broadcast, so process workers can run it."""

    __slots__ = ("handle",)

    def __init__(self, handle):
        self.handle = handle

    def __call__(self, _index, items):
        return [sum(self.handle.value) + item for item in items]


@pytest.fixture
def clean_store():
    clear_store()
    yield
    clear_store()


class TestBroadcastHandle:
    def test_broadcast_returns_handle(self):
        with SimulatedRuntime(ClusterConfig()) as runtime:
            handle = runtime.broadcast(np.arange(10), name="xs")
            assert isinstance(handle, BroadcastHandle)
            assert handle.name == "xs"
            assert handle.n_bytes == estimate_bytes(np.arange(10))
            assert len(handle.content_id) == 16
            np.testing.assert_array_equal(handle.value, np.arange(10))

    def test_pickle_drops_value_and_resolves_from_store(self, clean_store):
        value = np.arange(32)
        handle = BroadcastHandle(value, "aa" * 8, "xs", value.nbytes)
        wire = pickle.dumps(handle)
        # The value never rides inside a pickled handle.
        assert len(wire) < 200
        revived = pickle.loads(wire)
        _STORE[handle.key] = value
        np.testing.assert_array_equal(revived.value, value)

    def test_resolution_from_resident_store(self):
        value = list(range(100))
        factory = RuntimeFactory(ClusterConfig(backend="process", n_workers=2))
        try:
            with factory.lease() as runtime:
                handle = runtime.broadcast(value, name="xs")
                rdd = runtime.parallelize([0, 1, 2, 3], n_partitions=4)
                assert rdd.map_partitions_with_index(
                    _AddBroadcastSum(handle)
                ).collect() == [4950, 4951, 4952, 4953]
                # Shipped once into each worker's resident store: both
                # workers ran two tasks but hold one entry each.
                assert factory.backend.resident_entries() == [1, 1]
            # Closing the lease drops the value from every worker.
            assert factory.backend.resident_entries() == [0, 0]
        finally:
            factory.close()

    def test_released_value_leaves_workers_after_its_last_handle(self):
        # Equal payloads share a content id, so the first release must keep
        # the value the second handle still names.
        value = list(range(100))
        factory = RuntimeFactory(ClusterConfig(backend="process", n_workers=2))
        try:
            with factory.lease() as runtime:
                rdd = runtime.parallelize([0, 1, 2, 3], n_partitions=4)
                first = runtime.broadcast(value, name="xs")
                second = runtime.broadcast(list(value), name="xs")
                assert first.key == second.key
                task = _AddBroadcastSum(second)
                assert rdd.map_partitions_with_index(task).collect() == [
                    4950, 4951, 4952, 4953
                ]
                runtime.release_broadcast(first)
                assert factory.backend.resident_entries() == [1, 1]
                assert rdd.map_partitions_with_index(task).collect() == [
                    4950, 4951, 4952, 4953
                ]
                runtime.release_broadcast(second)
                assert factory.backend.resident_entries() == [0, 0]
                # A value released before any stage was sent never ships.
                runtime.release_broadcast(runtime.broadcast([7], name="ys"))
                other = _AddBroadcastSum(runtime.broadcast([1, 2], name="zs"))
                assert rdd.map_partitions_with_index(other).collect() == [
                    3, 4, 5, 6
                ]
                assert factory.backend.resident_entries() == [1, 1]
        finally:
            factory.close()

    def test_handles_of_two_runtimes_never_collide(self, clean_store):
        first = BroadcastHandle([1], "cafe" * 4, "xs", 8, scope=1)
        second = BroadcastHandle([2], "cafe" * 4, "xs", 8, scope=2)
        _STORE[first.key], _STORE[second.key] = [1], [2]
        assert pickle.loads(pickle.dumps(first)).value == [1]
        assert pickle.loads(pickle.dumps(second)).value == [2]

    def test_unresolvable_handle_raises(self, clean_store):
        handle = pickle.loads(
            pickle.dumps(BroadcastHandle([1], "beef" * 4, "xs", 8))
        )
        with pytest.raises(RuntimeError, match="no value"):
            handle.value

    def test_handle_costs_constant_wire_bytes(self):
        big = np.zeros(1 << 16, dtype=np.uint64)
        handle = BroadcastHandle(big, "ab" * 8, "big", big.nbytes)
        assert estimate_bytes(handle) == HANDLE_WIRE_BYTES
        # ... and the same inside a task-payload container.
        assert estimate_bytes([handle, handle]) == 2 * HANDLE_WIRE_BYTES + 8

    def test_equal_values_share_content_id(self):
        with SimulatedRuntime(ClusterConfig()) as runtime:
            first = runtime.broadcast(np.arange(8), name="a")
            second = runtime.broadcast(np.arange(8), name="b")
            assert first.content_id == second.content_id


#: Per-column sweep bytes closure-capture tasks shipped at rank 8, dim 128
#: (8848 B), divided by the 5x drop the handle path was held to.
MAX_PER_COLUMN_BYTES = 1769


def _dbtf_outcome(tensor, backend="serial"):
    config = DbtfConfig(rank=8, max_iterations=2, seed=7, n_partitions=4)
    cluster = ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
    )
    runtime = SimulatedRuntime(cluster)
    try:
        result = dbtf(tensor, config=config, runtime=runtime)
        by_stage = dict(runtime.ledger.by_stage)
    finally:
        runtime.close()
    return result, by_stage


def _sweep_bytes(by_stage):
    """Driver->worker bytes of the column sweep: every ledger row with a
    ``columnErrors`` task or ``columnUpdate`` broadcast segment."""
    return sum(
        value
        for name, value in by_stage.items()
        if {"columnErrors", "columnUpdate"} & set(name.split("+"))
    )


class TestHandlePathEquivalence:
    @pytest.fixture(scope="class")
    def tensor(self):
        return planted_tensor(
            (40, 32, 24), rank=4, factor_density=0.4,
            rng=np.random.default_rng(11), additive_noise=0.02,
        )[0]

    @pytest.mark.parametrize("backend", ["process"])
    def test_bit_identical_across_backends(self, tensor, backend):
        serial, serial_stages = _dbtf_outcome(tensor)
        other, other_stages = _dbtf_outcome(tensor, backend=backend)
        assert serial.error == other.error
        assert serial.errors_per_iteration == other.errors_per_iteration
        for serial_factor, other_factor in zip(serial.factors, other.factors):
            assert np.array_equal(serial_factor.words, other_factor.words)
        # Ledger byte totals are part of the backend-invariance contract.
        assert serial_stages == other_stages


class TestPerColumnByteDrop:
    def test_at_least_5x_drop_at_rank8_dim128(self, monkeypatch):
        """The headline regression: rank 8, dim 128, >=5x per-column drop.

        The sweep runs in rounds, so its stages are counted too: each
        update takes exactly as many ``columnErrors`` stages as Algorithm
        4's per-row change history predicts.
        """
        rng = np.random.default_rng(0)
        dense = (rng.random((128, 128, 128)) < 0.01).astype(np.uint8)
        tensor = SparseBoolTensor.from_dense(dense)
        config = DbtfConfig(rank=8, max_iterations=1, seed=3, n_partitions=4)
        rounds = []
        update = decompose.update_factor

        def counting(rdd, target, outer, inner, config, runtime, **options):
            _, _, swept, changes = sweep(
                unfolded(dense, len(rounds) % 3), target.to_dense(),
                basis(outer.to_dense(), inner.to_dense()), by_row=False,
            )
            rounds.append(predicted_rounds(swept, set(swept), changes))
            return update(rdd, target, outer, inner, config, runtime, **options)

        monkeypatch.setattr(decompose, "update_factor", counting)
        with SimulatedRuntime(ClusterConfig()) as runtime:
            result = dbtf(tensor, config=config, runtime=runtime)
            sweep_bytes = _sweep_bytes(dict(runtime.ledger.by_stage))
            stages = [
                stage.name for stage in runtime.stages
                if "columnErrors" in stage.name.split("+")
            ]
        assert len(rounds) == 3 * len(result.errors_per_iteration)
        assert len(stages) == sum(rounds) < 8 * len(rounds)
        per_column = sweep_bytes / (8 * 3 * len(result.errors_per_iteration))
        assert per_column <= MAX_PER_COLUMN_BYTES, (
            f"per-column sweep bytes {per_column:.0f} exceed "
            f"{MAX_PER_COLUMN_BYTES} (closure-capture baseline 8848 / 5)"
        )
