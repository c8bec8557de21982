"""Plan-layer tests: lazy lineage, stage fusion, persist caches, explain().

The fusion contract is that a chain of narrow transformations, dispatched
as one composed task, produces exactly what applying each step eagerly to
plain per-partition lists produces — under every backend — in a single
stage.  Property tests drive random chains against that list reference;
the ``explain()`` snapshot lives under ``tests/goldens/`` like the trace
golden.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    FusedChainTask,
    LogicalPlan,
    PhysicalStage,
    PlanNode,
    PlanOptimizer,
    SimulatedRuntime,
    TaskFailedError,
    TransferKind,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "plan_explain.txt"
)


# ----------------------------------------------------------------------
# Module-level, type-preserving (int -> int) chain steps so every random
# chain composes and pickles to the process backend.
# ----------------------------------------------------------------------
def _inc(x):
    return x + 1


def _double(x):
    return x * 2


def _keep_even(_index, items):
    return [x for x in items if x % 2 == 0]


def _keep_not_div3(_index, items):
    return [x for x in items if x % 3 != 0]


def _dedup_sorted(_index, items):
    return sorted(set(items))


def _tag_with_index(index, items):
    return [x * 31 + index for x in items]


#: Partition-wise steps; the element-wise ones go through ``map``.
_PARTITION_STEPS = {
    "filter_even": _keep_even,
    "filter_not3": _keep_not_div3,
    "parts_dedup": _dedup_sorted,
    "parts_tag": _tag_with_index,
}

_STEPS = {
    "map_inc": lambda rdd: rdd.map(_inc),
    "map_double": lambda rdd: rdd.map(_double),
    **{
        step: (lambda rdd, fn=fn: rdd.map_partitions_with_index(fn))
        for step, fn in _PARTITION_STEPS.items()
    },
}


#: The same steps applied directly to one plain partition list.
_LIST_STEPS = {
    "map_inc": lambda _index, items: [_inc(x) for x in items],
    "map_double": lambda _index, items: [_double(x) for x in items],
    **_PARTITION_STEPS,
}


def _eager_reference(data, n_partitions, steps):
    """Each step applied immediately to ``parallelize``-style list splits."""
    base, extra = divmod(len(data), n_partitions)
    partitions, cursor = [], 0
    for index in range(n_partitions):
        size = base + (1 if index < extra else 0)
        partitions.append(data[cursor:cursor + size])
        cursor += size
    for step in steps:
        partitions = [
            _LIST_STEPS[step](index, items)
            for index, items in enumerate(partitions)
        ]
    return [item for items in partitions for item in items]


def _apply_chain(runtime, data, n_partitions, steps, persist_at=()):
    rdd = runtime.parallelize(data, n_partitions=n_partitions, name="numbers")
    for position, step in enumerate(steps):
        rdd = _STEPS[step](rdd)
        if position in persist_at:
            rdd = rdd.persist()
    return rdd


def _run_chain(backend, data, n_partitions, steps, persist_at=()):
    """(collected result, dispatched stage count) on one backend."""
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                      n_workers=2)
    )
    try:
        rdd = _apply_chain(runtime, data, n_partitions, steps, persist_at)
        result = rdd.collect()
        return result, len(runtime.stages)
    finally:
        runtime.close()


class TestFusionEquivalence:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.lists(st.integers(min_value=-50, max_value=50),
                      min_size=1, max_size=24),
        n_partitions=st.integers(min_value=1, max_value=4),
        steps=st.lists(st.sampled_from(sorted(_STEPS)), min_size=1,
                       max_size=6),
    )
    def test_fused_matches_eager_serial(self, data, n_partitions, steps):
        fused, fused_stages = _run_chain("serial", data, n_partitions, steps)
        assert fused == _eager_reference(data, n_partitions, steps)
        assert fused_stages == 1  # whole chain is one dispatch

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.lists(st.integers(min_value=-50, max_value=50),
                      min_size=1, max_size=24),
        steps=st.lists(st.sampled_from(sorted(_STEPS)), min_size=1,
                       max_size=5),
        persist_position=st.integers(min_value=0, max_value=4),
    )
    def test_fused_matches_eager_process_with_persist(self, data, steps,
                                                      persist_position):
        persist_at = (persist_position,) if persist_position < len(steps) else ()
        fused, fused_stages = _run_chain("process", data, 3, steps, persist_at)
        assert fused == _eager_reference(data, 3, steps)
        assert fused_stages == 1  # a persist tap adds no dispatch

    def test_fused_matches_eager_process(self):
        # One fixed chain through the process backend: the composed
        # FusedChainTask must pickle and execute out-of-process.
        data = list(range(40))
        steps = ["map_inc", "filter_even", "parts_dedup", "parts_tag",
                 "map_double"]
        fused, fused_stages = _run_chain("process", data, 4, steps)
        assert fused == _eager_reference(data, 4, steps)
        assert fused_stages == 1


class TestPersistCache:
    def _runtime(self, **overrides):
        return SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=2, **overrides)
        )

    def test_persist_materializes_once(self):
        runtime = self._runtime()
        calls = []

        def spy(_index, items):
            calls.append(len(items))
            return items

        rdd = runtime.parallelize(list(range(9)), n_partitions=3)
        cached = rdd.map_partitions_with_index(spy, name="spied").persist()
        assert cached.collect() == list(range(9))
        assert cached.collect() == list(range(9))
        assert calls == [3, 3, 3]  # 3 partitions, exactly one pass
        assert runtime.metrics.value("partitions_cached_total") == 3.0
        assert runtime.metrics.value("cache_hits_total") == 3.0
        runtime.close()

    def test_fusion_taps_fill_persist_without_extra_stage(self):
        runtime = self._runtime()
        rdd = runtime.parallelize(list(range(12)), n_partitions=3)
        middle = rdd.map(_inc, name="scale").persist()
        final = middle.map(_double, name="shift")
        expected = [(x + 1) * 2 for x in range(12)]
        assert final.collect() == expected
        # One fused dispatch ("scale+shift") populated the persist cache.
        assert [s.name for s in runtime.stages] == ["scale+shift"]
        assert runtime.metrics.value("partitions_cached_total") == 3.0
        # Reusing the persisted node dispatches only the downstream tail.
        assert middle.map(_double).collect() == expected
        assert [s.name for s in runtime.stages][1:] == ["map"]
        assert runtime.metrics.value("cache_hits_total") >= 3.0
        runtime.close()

    def test_unpersist_and_close_evict(self):
        runtime = self._runtime()
        first = runtime.parallelize([1, 2], n_partitions=2).map(_inc).persist()
        second = runtime.parallelize([3, 4], n_partitions=2).map(_inc).persist()
        first.collect()
        second.collect()
        first.unpersist()
        assert runtime.metrics.value("partitions_evicted_total") == 2.0
        assert first.node.cached is None
        runtime.close()  # evicts every still-registered persist
        assert runtime.metrics.value("partitions_evicted_total") == 4.0
        assert second.node.cached is None

    def test_persist_source_is_noop(self):
        runtime = self._runtime()
        rdd = runtime.parallelize([1, 2, 3], n_partitions=3)
        assert rdd.persist() is rdd
        runtime.close()
        assert runtime.metrics.counters().get("partitions_evicted_total") is None


class TestStageNames:
    def test_composite_name_includes_cache_build(self):
        runtime = SimulatedRuntime()
        rdd = runtime.parallelize(list(range(8)), n_partitions=2)
        (rdd.map(_inc).map_partitions_with_index(_keep_even).map(_double)
         .persist().count())
        assert [s.name for s in runtime.stages] == [
            "map+mapPartitionsWithIndex+cache-build"
        ]
        runtime.close()

    def test_named_segments_win_over_op_labels(self):
        runtime = SimulatedRuntime()
        rdd = runtime.parallelize(list(range(8)), n_partitions=2)
        (rdd.map(_inc, name="scale")
         .map_partitions_with_index(_keep_even, name="keep").collect())
        assert [s.name for s in runtime.stages] == ["scale+keep"]
        runtime.close()

    def test_count_and_reduce_charge_named_ledger_entries(self):
        runtime = SimulatedRuntime()
        rdd = runtime.parallelize(list(range(6)), n_partitions=2, name="nums")
        assert rdd.count() == 6
        assert rdd.reduce(lambda a, b: a + b) == 15
        assert rdd.reduce(lambda a, b: a + b, name="customSum") == 15
        by_stage = dict(runtime.ledger.by_stage)
        assert by_stage["nums.count"] == 8  # one scalar crosses the wire
        assert "nums.reduce" in by_stage
        assert "customSum" in by_stage
        assert runtime.ledger.bytes_of_kind(TransferKind.COLLECT) > 0
        runtime.close()

    def test_error_carries_composite_stage_name(self):
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=1, cores_per_machine=1),
            fault_injector=FaultInjector(failure_rate=0.95, max_retries=0,
                                         seed=0),
        )
        rdd = runtime.parallelize(list(range(8)), n_partitions=4)
        with pytest.raises(TaskFailedError) as excinfo:
            rdd.map(_inc, name="a").map(_double, name="b").collect()
        assert excinfo.value.stage == "a+b"
        runtime.close()


class TestBroadcastDedup:
    def test_default_meters_every_broadcast(self):
        """An equal payload broadcast twice is charged twice."""
        import numpy as np

        payload = np.arange(256, dtype=np.int64)
        runtime = SimulatedRuntime(ClusterConfig(n_machines=2))
        runtime.broadcast(payload, name="factors")
        runtime.broadcast(payload, name="factors")
        assert runtime.ledger.bytes_of_kind(TransferKind.BROADCAST) == 4096
        runtime.close()


class TestOptimizerUnits:
    def _chain(self, n, persist_at=()):
        counter = iter(range(100))
        node = PlanNode("source", label="src", node_id=next(counter))
        node.cached = [[1], [2]]
        for position in range(n):
            node = PlanNode("map", fn=lambda _i, items: items, parent=node,
                            node_id=next(counter))
            if position in persist_at:
                node.persisted = True
        return node

    def test_plan_fuses_whole_chain(self):
        stages = PlanOptimizer().plan(self._chain(4))
        assert [s.name for s in stages] == ["map+map+map+map"]

    def test_plan_taps_interior_persist(self):
        stages = PlanOptimizer().plan(self._chain(4, persist_at=(1,)))
        assert len(stages) == 1
        assert stages[0].tap_positions == (1,)
        assert stages[0].name == "map+cache-build+map+map"

    def test_cached_interior_node_is_a_barrier(self):
        node = self._chain(4, persist_at=(1,))
        interior = node.parent.parent  # position 1
        interior.cached = [[10], [20]]
        stages = PlanOptimizer().plan(node)
        assert [s.name for s in stages] == ["map+map"]

    def test_fused_chain_task_captures_taps(self):
        task = FusedChainTask(
            [lambda _i, items: [x + 1 for x in items],
             lambda _i, items: [x * 2 for x in items]],
            taps=(0,),
        )
        ((final, captured),) = task(0, [1, 2])
        assert final == [4, 6]
        assert captured == [(0, [2, 3])]

    def test_physical_stage_excludes_terminal_from_taps(self):
        nodes = [PlanNode("map", node_id=i) for i in range(2)]
        nodes[1].persisted = True
        assert PhysicalStage(nodes).tap_positions == ()


class TestExplainGolden:
    def _render(self):
        runtime = SimulatedRuntime(ClusterConfig(n_machines=2,
                                                 cores_per_machine=2))
        rdd = runtime.parallelize(list(range(8)), n_partitions=2,
                                  name="numbers")
        chain = (rdd.map(_inc, name="scale")
                 .map_partitions_with_index(_keep_even)
                 .persist().map(_double, name="shift"))
        before = chain.explain()
        chain.collect()
        after = chain.explain()
        runtime.close()
        return (
            "-- before any action --\n" + before
            + "\n\n-- after collect() --\n" + after + "\n"
        )

    def test_explain_matches_golden(self, update_goldens):
        rendered = self._render()
        if update_goldens or not os.path.exists(GOLDEN_PATH):
            with open(GOLDEN_PATH, "w") as handle:
                handle.write(rendered)
            pytest.skip("golden rewritten")
        with open(GOLDEN_PATH) as handle:
            assert rendered == handle.read()

    def test_explain_is_deterministic(self):
        assert self._render() == self._render()

    def test_logical_plan_explain_reports_materialized(self):
        runtime = SimulatedRuntime()
        rdd = runtime.parallelize([1, 2], n_partitions=2, name="src")
        text = LogicalPlan(rdd.node, runtime.plan_optimizer).explain()
        assert "fully materialized" in text
        runtime.close()
