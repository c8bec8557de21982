"""Spill store unit tests and budgeted-factorization invariance tests.

The central contract of the storage tier: a factorization under a memory
budget produces bit-identical factors and error traces to an unbudgeted
run on every backend, tracked resident bytes never exceed the budget, and
a run with no budget pays zero storage overhead (no spans, no counters).
"""

import gc
import os
import re

import numpy as np
import pytest

from repro.core import dbtf
from repro.core.partition import build_partition_data, make_partition_plans
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.storage import (
    MemoryBudget,
    MmapUnfoldingStore,
    PartitionSpillStore,
    SpilledPartitions,
    SpillFileError,
)
from repro.storage.mmap_store import HEADER_BYTES
from repro.tensor import PackedUnfolding, SparseBoolTensor, planted_tensor, unfold

#: A budget no run of this file's tensor can exhaust (the probe).
UNLIMITED_BUDGET = 1 << 40


class _FakeNode:
    """Minimal stand-in for a PlanNode: node_id, a cached slot, and
    whether it is a source."""

    _next_id = 0

    def __init__(self, partitions, is_source=True):
        _FakeNode._next_id += 1
        self.node_id = _FakeNode._next_id
        self.cached = partitions
        self.is_source = is_source


def _partitions(n_arrays: int, n_bytes_each: int):
    """Partition list whose default-measured size is n_arrays * n_bytes_each."""
    return [[np.zeros(n_bytes_each, dtype=np.uint8)] for _ in range(n_arrays)]


class TestPartitionSpillStore:
    @pytest.fixture
    def store(self, tmp_path):
        store = PartitionSpillStore(MemoryBudget(1000), spill_dir=str(tmp_path))
        yield store
        store.close()

    def test_admit_charges_budget(self, store):
        node = _FakeNode(_partitions(2, 100))
        store.admit(node)
        assert store.budget.resident_bytes == 200
        assert store.fetch(node) is node.cached
        assert not isinstance(node.cached, SpilledPartitions)

    def test_lru_eviction_spills_coldest(self, store):
        cold = _FakeNode(_partitions(1, 600))
        warm = _FakeNode(_partitions(1, 300))
        store.admit(cold)
        store.admit(warm)
        hot = _FakeNode(_partitions(1, 400))
        store.admit(hot)  # 600 + 300 + 400 > 1000: cold must go
        assert isinstance(cold.cached, SpilledPartitions)
        assert not isinstance(warm.cached, SpilledPartitions)
        assert not isinstance(hot.cached, SpilledPartitions)
        assert store.budget.resident_bytes == 700
        assert store.budget.spill_events == 1

    def test_marker_preserves_len_and_truthiness(self, store):
        node = _FakeNode(_partitions(3, 600))
        store.admit(node)
        store.admit(_FakeNode(_partitions(1, 900)))  # evicts node
        marker = node.cached
        assert isinstance(marker, SpilledPartitions)
        assert marker is not None and len(marker) == 3
        assert os.path.exists(marker.path)

    def test_fetch_reloads_spilled_entry_bit_identically(self, store):
        rng = np.random.default_rng(0)
        original = [[rng.integers(0, 256, 200, dtype=np.uint8)] for _ in range(2)]
        node = _FakeNode([list(p) for p in original])
        store.admit(node)
        store.admit(_FakeNode(_partitions(1, 900)))  # evicts node
        assert isinstance(node.cached, SpilledPartitions)
        loaded = store.fetch(node)
        assert store.budget.load_events == 1
        assert node.cached is loaded  # re-admitted resident
        for got, want in zip(loaded, original):
            assert np.array_equal(got[0], want[0])

    def test_reload_does_not_rewrite_file(self, store, tmp_path):
        node = _FakeNode(_partitions(1, 600))
        store.admit(node)
        evictor = _FakeNode(_partitions(1, 900))
        store.admit(evictor)
        path = node.cached.path
        mtime = os.path.getmtime(path)
        store.fetch(node)   # reload (evicts evictor — its first, real write)
        after_evictor_spill = store.budget.spilled_bytes
        store.fetch(evictor)  # reload evictor; node re-spills to existing file
        assert isinstance(node.cached, SpilledPartitions)
        assert os.path.getmtime(path) == mtime
        # Re-spill of an already-written file counts an event but no bytes.
        assert store.budget.spilled_bytes == after_evictor_spill
        assert store.budget.spill_events == 3

    def test_oversized_entry_never_resident(self, store):
        node = _FakeNode(_partitions(3, 500))  # 1500 > 1000 limit
        store.admit(node)
        assert isinstance(node.cached, SpilledPartitions)
        assert store.budget.resident_bytes == 0
        loaded = store.fetch(node)
        assert len(loaded) == 3
        # Still spilled: a fetch hands back a transient list, keeps marker.
        assert isinstance(node.cached, SpilledPartitions)

    def test_discard_frees_budget_and_file(self, store):
        node = _FakeNode(_partitions(1, 600))
        store.admit(node)
        store.admit(_FakeNode(_partitions(1, 900)))
        path = node.cached.path
        store.discard(node)
        assert node.cached is None
        assert not os.path.exists(path)
        resident = _FakeNode(_partitions(1, 100))
        store.admit(resident)
        before = store.budget.resident_bytes
        store.discard(resident)
        assert store.budget.resident_bytes == before - 100

    def test_fetch_none_cache_returns_none(self, store):
        node = _FakeNode(None)
        store.admit(node)  # no-op
        assert store.fetch(node) is None

    def test_close_removes_spill_directory(self, tmp_path):
        store = PartitionSpillStore(MemoryBudget(100), spill_dir=str(tmp_path))
        directory = store.directory
        store.admit(_FakeNode(_partitions(1, 600)))
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)
        assert os.path.isdir(str(tmp_path))  # only the subdirectory is removed


@pytest.fixture(scope="module")
def budget_bytes():
    """Half the tracked working set of an unlimited probe run.

    Derived rather than fixed, like ``bench_storage.py``, so the run keeps
    twice its budget's worth of caches whatever the plan caches: the
    budget must spill.
    """
    _, _, probe = _run("serial", memory_budget=UNLIMITED_BUDGET)
    assert probe.spill_events == 0
    return probe.peak_resident // 2


def _mapped_partitions(store):
    """Partitions whose slabs view an unfolding file under ``store``'s
    directory, the way a budgeted runtime lays them out; plus that file."""
    rng = np.random.default_rng(3)
    tensor = SparseBoolTensor.from_dense(
        (rng.random((40, 9, 70)) < 0.2).astype(np.uint8)
    )
    unfoldings = MmapUnfoldingStore(os.path.join(store.directory, "unfoldings"))
    path = unfoldings.save(PackedUnfolding(unfold(tensor, 0)))
    packed = unfoldings.load(path)
    plans = make_partition_plans(packed.block_count, packed.block_width, 3)
    return [[data] for data in build_partition_data(packed, plans)], path


def _spilled(store, partitions, is_source=True):
    node = _FakeNode(partitions, is_source)
    store.admit(node)
    assert isinstance(node.cached, SpilledPartitions)
    return node


class TestSpillByReference:
    @pytest.fixture
    def store(self, tmp_path):
        # Every partition alone exceeds the budget: spilled on admit.
        store = PartitionSpillStore(MemoryBudget(1000), spill_dir=str(tmp_path))
        yield store
        store.close()

    def test_file_views_spill_as_references(self, store):
        partitions, _ = _mapped_partitions(store)
        words_bytes = sum(p[0].nbytes for p in partitions)
        node = _spilled(store, partitions)
        assert os.path.getsize(node.cached.path) < words_bytes // 4
        loaded = store.fetch(node)
        for got, want in zip(loaded, partitions):
            assert got[0].plan == want[0].plan
            np.testing.assert_array_equal(got[0].words, want[0].words)
            assert got[0].words.strides == want[0].words.strides
            assert not got[0].words.flags.writeable
        # A reloaded view spills by reference again, to the same bytes.
        again = _spilled(store, loaded)
        with open(node.cached.path, "rb") as first, \
                open(again.cached.path, "rb") as second:
            assert first.read() == second.read()

    def test_other_arrays_spill_by_value(self, store):
        partitions, _ = _mapped_partitions(store)
        copies = [[np.array(p[0].words)] for p in partitions]
        node = _spilled(store, copies)
        words_bytes = sum(p[0].nbytes for p in copies)
        assert os.path.getsize(node.cached.path) > words_bytes
        for got, want in zip(store.fetch(node), copies):
            np.testing.assert_array_equal(got[0], want[0])
            assert got[0].flags.writeable

    def test_derived_nodes_spill_views_by_value(self, store):
        # A process worker hands a derived node's partitions back as
        # copies; spilling the same views by value keeps the spill bytes
        # equal on every backend.
        partitions, _ = _mapped_partitions(store)
        copies = [[type(p[0])(p[0].plan, np.array(p[0].words))] for p in partitions]
        views = _spilled(store, partitions, is_source=False)
        copied = _spilled(store, copies, is_source=False)
        with open(views.cached.path, "rb") as first, \
                open(copied.cached.path, "rb") as second:
            assert first.read() == second.read()

    def test_spill_bytes_do_not_depend_on_directory(self, tmp_path):
        contents = []
        for name in ("a", "a-much-longer-directory-name/nested"):
            store = PartitionSpillStore(
                MemoryBudget(1000), spill_dir=str(tmp_path / name)
            )
            try:
                partitions, _ = _mapped_partitions(store)
                with open(_spilled(store, partitions).cached.path, "rb") as f:
                    contents.append(f.read())
            finally:
                store.close()
        assert contents[0] == contents[1]


class TestSpillLoadErrors:
    @pytest.fixture
    def store(self, tmp_path):
        store = PartitionSpillStore(MemoryBudget(1000), spill_dir=str(tmp_path))
        yield store
        store.close()

    def test_truncated_spill_file_names_its_path(self, store):
        node = _spilled(store, _partitions(2, 800))
        path = node.cached.path
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(SpillFileError, match=re.escape(path)):
            store.fetch(node)

    def _orphaned(self, store):
        """A by-reference entry whose views are gone from the process, so
        the test may damage the unfolding file without touching a page."""
        partitions, unfolding = _mapped_partitions(store)
        node = _spilled(store, partitions)
        del partitions
        gc.collect()
        return node, unfolding

    def test_missing_unfolding_file(self, store):
        node, unfolding = self._orphaned(store)
        os.remove(unfolding)
        with pytest.raises(SpillFileError, match=re.escape(node.cached.path)):
            store.fetch(node)

    def test_short_unfolding_file(self, store):
        node, unfolding = self._orphaned(store)
        os.truncate(unfolding, HEADER_BYTES + 64)
        with pytest.raises(SpillFileError, match=re.escape(node.cached.path)):
            store.fetch(node)


def _run(backend: str, memory_budget: "int | None", tracing: bool = False):
    """Fixed-seed DBTF; returns (result, runtime) with the runtime closed."""
    tensor, _ = planted_tensor(
        (10, 10, 10), rank=2, factor_density=0.3,
        rng=np.random.default_rng(7),
    )
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                      memory_budget=memory_budget, tracing=tracing)
    )
    try:
        result = dbtf(tensor, rank=2, max_iterations=2, n_partitions=3,
                      seed=0, runtime=runtime)
        budget = runtime.storage.budget if runtime.storage is not None else None
        return result, runtime, budget
    finally:
        runtime.close()


class TestBudgetedFactorization:
    @pytest.fixture(scope="class")
    def baseline(self):
        result, _, _ = _run("serial", memory_budget=None)
        return result

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_bit_identical_under_budget(self, baseline, backend, budget_bytes):
        result, runtime, budget = _run(backend, memory_budget=budget_bytes)
        assert budget.spill_events > 0, "budget too large to exercise spill"
        assert budget.peak_resident <= budget_bytes
        assert result.errors_per_iteration == baseline.errors_per_iteration
        for got, want in zip(result.factors, baseline.factors):
            assert np.array_equal(got.words, want.words)

    def test_spill_bytes_metered_not_networked(self, baseline, budget_bytes):
        result, _, _ = _run("serial", memory_budget=budget_bytes)
        assert result.report.spill_bytes > 0
        assert baseline.report.spill_bytes == 0
        # Spill I/O must not inflate the shuffle/broadcast byte totals.
        # (The budget path routes unfoldings through the memmap store, so
        # its task payloads differ from the coordinate-shuffle path; the
        # wire charges for the data itself must still match exactly.)
        assert result.report.shuffle_bytes == baseline.report.shuffle_bytes
        assert result.report.broadcast_bytes == baseline.report.broadcast_bytes
        assert result.report.task_bytes <= baseline.report.task_bytes

    def test_spill_time_charged_at_disk_bandwidth(self, budget_bytes):
        # simulated_time itself folds in host-measured task durations, so
        # only the spill component is comparable across runs.
        result, runtime, _ = _run("serial", memory_budget=budget_bytes)
        expected = (
            result.report.spill_bytes / ClusterConfig().disk_bytes_per_sec
        )
        assert expected > 0
        assert runtime.metrics.value(
            "simulated_spill_seconds", machines=2
        ) == pytest.approx(expected)


class TestDisabledPathUnchanged:
    """With memory_budget=None the storage tier must be invisible."""

    def test_no_store_constructed(self):
        _, runtime, budget = _run("serial", memory_budget=None)
        assert runtime.storage is None
        assert budget is None

    def test_no_storage_spans_or_counters(self):
        _, runtime, _ = _run("serial", memory_budget=None, tracing=True)
        kinds = {span.kind for span in runtime.tracer.spans}
        assert kinds == {"stage", "task", "kernel", "transfer"}
        metric_names = {row[0] for row in runtime.metrics.collect()}
        assert not any(name.startswith("storage_") for name in metric_names)
        assert "simulated_spill_seconds" not in metric_names

    def test_storage_spans_present_when_budgeted(self, budget_bytes):
        _, runtime, _ = _run("serial", memory_budget=budget_bytes,
                             tracing=True)
        kinds = {span.kind for span in runtime.tracer.spans}
        assert "storage" in kinds
        ops = {
            span.attrs.get("op")
            for span in runtime.tracer.spans
            if span.kind == "storage"
        }
        assert ops == {"spill", "load"}
