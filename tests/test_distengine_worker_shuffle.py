"""Worker-side bucketed shuffle plane vs a driver-side dict reference.

The central contract: ``combine_by_key`` must produce result partitions
and SHUFFLE ledger charges identical to a plain dict-based combine routed
on the driver with a ``stable_hash`` bucket recount
(``tests/_shuffle_reference.py``), for every partition shape — empty
partitions, growing/shrinking ``n_partitions``, keys duplicated across
every source — on the serial, thread, and process backends, with and
without a memory budget.  A hypothesis property pins the equivalence over
randomized keyed datasets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distengine import ClusterConfig, SimulatedRuntime, TransferKind

from ._shuffle_reference import reference_combine

BACKENDS = ["serial", "thread", "process"]


def _copy(value):
    return value.copy() if hasattr(value, "copy") else value


def _add(left, right):
    return left + right


def _normalize(partitions):
    """Partition structure with ndarray values made comparable."""
    return [
        [
            (key, value.tolist() if isinstance(value, np.ndarray) else value)
            for key, value in partition
        ]
        for partition in partitions
    ]


def _combine(
    data, n_source, n_target=None, backend="serial", memory_budget=None
):
    """One combine_by_key run; returns (partitions, shuffle bytes, runtime facts)."""
    runtime = SimulatedRuntime(
        ClusterConfig(
            n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
            memory_budget=memory_budget,
        )
    )
    try:
        rdd = runtime.parallelize(data, n_partitions=n_source, name="kv")
        out = rdd.combine_by_key(_copy, _add, _add, n_partitions=n_target)
        partitions = out.glom()
        shuffle_bytes = runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        counters = runtime.metrics.counters()
        return _normalize(partitions), shuffle_bytes, counters
    finally:
        runtime.close()


def _reference(data, n_source, n_target=None):
    """The dict-based reference's (partitions, total shuffle bytes)."""
    partitions, bucket_bytes = reference_combine(
        data, n_source, n_target or n_source, _copy, _add, _add
    )
    return _normalize(partitions), sum(bucket_bytes)


def _array_data(n_items, n_keys=7):
    return [
        (i % n_keys, np.arange(4, dtype=np.int64) + i) for i in range(n_items)
    ]


class TestWorkerVsDriverEquivalence:
    def test_partitions_and_bytes_identical(self):
        data = _array_data(120)
        worker, worker_bytes, _ = _combine(data, 6)
        assert (worker, worker_bytes) == _reference(data, 6)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_invariant(self, backend):
        data = _array_data(80)
        got, got_bytes, _ = _combine(data, 4, backend=backend)
        assert (got, got_bytes) == _reference(data, 4)

    def test_integer_values(self):
        data = [(i % 5, i) for i in range(200)]
        worker, worker_bytes, _ = _combine(data, 8)
        assert (worker, worker_bytes) == _reference(data, 8)

    def test_routing_timer_recorded_on_both_paths(self):
        """Timed with and without map-side spilling."""
        data = _array_data(40)
        for memory_budget in (None, 2000):
            _, _, counters = _combine(data, 4, memory_budget=memory_budget)
            routing = counters.get("shuffle_routing_seconds_total", {})
            assert routing, "routing timer missing"
            assert all(value >= 0.0 for value in routing.values())


class TestEdgeCases:
    @pytest.mark.parametrize("budgeted", [True, False])
    def test_empty_input(self, budgeted):
        partitions, shuffle_bytes, _ = _combine(
            [], 4, memory_budget=2000 if budgeted else None
        )
        assert partitions == [[] for _ in range(4)]
        assert shuffle_bytes == 0

    def test_more_partitions_than_items(self):
        data = [(0, 1), (1, 2)]
        worker, worker_bytes, _ = _combine(data, 8)
        assert (worker, worker_bytes) == _reference(data, 8)

    def test_partition_growth(self):
        data = _array_data(30)
        worker, wb, _ = _combine(data, 2, n_target=8)
        assert len(worker) == 8
        assert (worker, wb) == _reference(data, 2, n_target=8)

    def test_partition_shrink(self):
        data = _array_data(30)
        worker, wb, _ = _combine(data, 8, n_target=2)
        assert len(worker) == 2
        assert (worker, wb) == _reference(data, 8, n_target=2)

    def test_single_target_partition(self):
        data = _array_data(30)
        worker, wb, _ = _combine(data, 4, n_target=1)
        assert len(worker) == 1
        assert (worker, wb) == _reference(data, 4, n_target=1)

    def test_duplicate_keys_across_all_sources(self):
        # Every source partition holds every key, so every reduce bucket
        # merges combiners from every map output — the order-sensitivity
        # worst case for the segment splice.
        n_source = 6
        data = []
        for source in range(n_source):
            for key in range(10):
                data.append((key, np.full(3, source + 1, dtype=np.int64)))
        worker, wb, _ = _combine(data, n_source)
        assert (worker, wb) == _reference(data, n_source)

    def test_none_values_and_string_keys(self):
        data = [(f"k{i % 3}", i) for i in range(20)] + [("k0", 0)]
        worker, wb, _ = _combine(data, 3)
        assert (worker, wb) == _reference(data, 3)


class TestBudgetedWorkerShuffle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spill_results_identical(self, backend):
        data = _array_data(200)
        spilled, _, counters = _combine(
            data, 8, backend=backend, memory_budget=2000
        )
        assert spilled == _reference(data, 8)[0]
        spills = counters.get("shuffle_spill_total", {})
        assert sum(spills.values()) > 0, "tiny budget must force spill runs"

    def test_spill_counts_backend_invariant(self):
        data = _array_data(200)
        totals = []
        for backend in BACKENDS:
            _, _, counters = _combine(
                data, 8, backend=backend, memory_budget=2000
            )
            totals.append(sum(counters.get("shuffle_spill_total", {}).values()))
        assert totals[0] > 0
        assert totals == [totals[0]] * len(BACKENDS)

    def test_spill_bytes_metered(self):
        data = _array_data(200)
        runtime = SimulatedRuntime(
            ClusterConfig(memory_budget=2000)
        )
        try:
            rdd = runtime.parallelize(data, n_partitions=8, name="kv")
            rdd.combine_by_key(_copy, _add, _add).glom()
            by_stage = dict(runtime.ledger.by_stage)
            spill_stages = [s for s in by_stage if s.endswith(".spill")]
            fetch_stages = [s for s in by_stage if s.endswith(".fetch")]
            assert spill_stages and fetch_stages
            assert runtime.ledger.bytes_of_kind(TransferKind.SPILL) > 0
        finally:
            runtime.close()

    def test_no_spill_without_budget(self):
        data = _array_data(60)
        _, _, counters = _combine(data, 4)
        assert not counters.get("shuffle_spill_total", {})


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-1000, 1000)),
        max_size=120,
    ),
    n_source=st.integers(1, 6),
    n_target=st.integers(1, 6),
)
def test_worker_routing_matches_driver_routing(items, n_source, n_target):
    """Property: buckets and ledger totals match the driver-side reference."""
    worker, worker_bytes, _ = _combine(items, n_source, n_target=n_target)
    assert (worker, worker_bytes) == _reference(items, n_source, n_target)
