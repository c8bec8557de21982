"""A partitioned, Spark-like distributed collection with lazy lineage.

:class:`Distributed` is the engine's RDD analogue.  Transformations are
**lazy**: ``map``/``filter``/``map_partitions``/``map_partitions_with_index``
(and the map half of ``combine_by_key``) append a
:class:`~repro.distengine.plan.PlanNode` to a lineage DAG and return
immediately.  Actions (``collect``, ``count``, ``reduce``, ``glom``, and the
shuffle barrier inside ``combine_by_key``) hand the DAG to the plan layer
(:mod:`repro.distengine.plan`), which fuses each maximal chain of narrow
transformations into one composed task per partition before dispatching
through ``runtime.run_plan`` — a ``map → filter → map`` pipeline costs one
stage, not three, and the fused stage carries the composite name
(``"map+filter+..."``) into spans, reports, and the retry path.

``persist()`` is a real materialization barrier: the partitions are cached
at first materialization (metered by ``partitions_cached_total``) and
reused on every later access (``cache_hits_total``) until ``unpersist()``
or ``runtime.close()`` evicts them.

Wide operations (``combine_by_key``) still move data between partitions and
charge the shuffle ledger; narrow ones do not — the same distinction Spark
draws.  All stage payloads remain module-level callables holding their
captured values as attributes, so they stay picklable and every
transformation works unchanged under the process backend (provided the
user-supplied functions are themselves picklable).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from typing import Any

from ..storage.shuffle_spill import ShuffleSpillWriter, read_bucket
from .plan import LogicalPlan, PlanNode
from .shuffle import (
    TransferKind,
    estimate_bytes,
    estimate_pair_bytes,
    stable_hash,
)

__all__ = ["Distributed", "ShuffleMapOutput"]

#: Sentinel distinguishing "key absent" from a ``None`` combiner.
_MISSING = object()


class _ElementTask:
    """``map`` payload: apply ``fn`` to every element of a partition."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, _index: int, items: list[Any]) -> list[Any]:
        return [self.fn(item) for item in items]


class _FilterTask:
    """``filter`` payload: keep the elements satisfying ``predicate``."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[Any], bool]):
        self.predicate = predicate

    def __call__(self, _index: int, items: list[Any]) -> list[Any]:
        return [item for item in items if self.predicate(item)]


class _PartitionTask:
    """``map_partitions`` payload: apply ``fn`` to the whole partition."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[list[Any]], Iterable[Any]]):
        self.fn = fn

    def __call__(self, _index: int, items: list[Any]) -> Iterable[Any]:
        return self.fn(items)


class ShuffleMapOutput:
    """One map task's bucketed shuffle output (worker-side routing).

    ``buckets[b]`` holds the in-memory ``(key, combiner)`` pairs destined
    for reduce partition ``b`` in insertion order, ``bucket_bytes[b]`` their
    pre-measured wire size, and ``runs`` the metadata of any spilled runs
    (oldest first) — everything the driver needs to route whole buckets
    without touching a single pair.
    """

    __slots__ = ("buckets", "bucket_bytes", "runs")

    def __init__(
        self,
        buckets: "list[list[tuple]]",
        bucket_bytes: "list[int]",
        runs: list,
    ):
        self.buckets = buckets
        self.bucket_bytes = bucket_bytes
        self.runs = runs


class _CombineMapTask:
    """Map-side of ``combine_by_key``: pre-combine values within a partition.

    The task buckets combiners by ``stable_hash(key) % target_count`` *as
    it builds them* and returns a single-element partition holding a
    :class:`ShuffleMapOutput`: per-bucket pair lists in insertion order
    with their wire bytes batch-measured inside the worker.

    With ``spill_threshold`` set (a per-task share of the cluster's memory
    budget), the running combiner-state estimate is tracked incrementally;
    crossing the threshold writes the entire current bucket set as one
    sorted run (bucket-index order, insertion order within buckets) through
    :class:`~repro.storage.ShuffleSpillWriter` and starts over empty — so
    combine state under process pools is bounded by the budget share, and
    the reduce side re-merges runs bit-identically.
    """

    __slots__ = (
        "create_combiner", "merge_value", "target_count", "spill_dir",
        "spill_threshold", "shuffle_id",
    )

    def __init__(
        self,
        create_combiner,
        merge_value,
        target_count: int,
        spill_dir: "str | None" = None,
        spill_threshold: "int | None" = None,
        shuffle_id: int = 0,
    ):
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.target_count = target_count
        self.spill_dir = spill_dir
        self.spill_threshold = spill_threshold
        self.shuffle_id = shuffle_id

    def __call__(self, index: int, items: list[Any]) -> list[ShuffleMapOutput]:
        target = self.target_count
        threshold = self.spill_threshold
        buckets: list[dict[Any, Any]] = [{} for _ in range(target)]
        runs: list = []
        writer: "ShuffleSpillWriter | None" = None
        tracked = 0
        for key, value in items:
            bucket = buckets[stable_hash(key) % target]
            old = bucket.get(key, _MISSING)
            if old is _MISSING:
                combiner = self.create_combiner(value)
                if threshold is not None:
                    tracked += estimate_bytes(key) + estimate_bytes(combiner)
            else:
                # Measure the old combiner *before* merging so in-place
                # merge functions still report their growth.
                if threshold is not None:
                    tracked -= estimate_bytes(old)
                combiner = self.merge_value(old, value)
                if threshold is not None:
                    tracked += estimate_bytes(combiner)
            bucket[key] = combiner
            if threshold is not None and tracked > threshold:
                if writer is None:
                    writer = ShuffleSpillWriter(
                        self.spill_dir, self.shuffle_id, index
                    )
                runs.append(
                    writer.write_run(
                        [list(b.items()) for b in buckets],
                        [estimate_pair_bytes(b.items()) for b in buckets],
                    )
                )
                buckets = [{} for _ in range(target)]
                tracked = 0
        mem = [list(b.items()) for b in buckets]
        return [
            ShuffleMapOutput(
                mem, [estimate_pair_bytes(pairs) for pairs in mem], runs
            )
        ]


class _SpillSegment:
    """Reduce-side reference to one bucket's blob inside a spill run."""

    __slots__ = ("path", "offset", "length")

    def __init__(self, path: str, offset: int, length: int):
        self.path = path
        self.offset = offset
        self.length = length

    def load(self) -> list[tuple]:
        return read_bucket(self.path, self.offset, self.length)


class _ShuffleReduceTask:
    """Reduce-side of the worker shuffle: merge one bucket's segments.

    Each segment is either an in-memory pair list or a :class:`_SpillSegment`
    loaded on demand.  Segments arrive in deterministic (source partition,
    run, insertion) order, so the merged dict's first-occurrence key order —
    and with it ``list(bucket.items())`` — is identical under every backend.
    """

    __slots__ = ("merge_combiners",)

    def __init__(self, merge_combiners):
        self.merge_combiners = merge_combiners

    def __call__(self, _index: int, segments: list) -> list[tuple]:
        bucket: dict[Any, Any] = {}
        for segment in segments:
            pairs = segment if isinstance(segment, list) else segment.load()
            for key, combiner in pairs:
                if key in bucket:
                    bucket[key] = self.merge_combiners(bucket[key], combiner)
                else:
                    bucket[key] = combiner
        return list(bucket.items())


def _identity(value: Any) -> Any:
    """Module-level identity so ``reduce_by_key`` stays picklable."""
    return value


class Distributed:
    """A lazily evaluated, partitioned collection bound to a runtime.

    The collection takes ownership of ``partitions`` without copying: every
    construction site (``parallelize``/``from_partitions`` ingestion,
    shuffle results) already hands over freshly built lists.  Callers that
    need an independent snapshot should use :meth:`glom`.
    """

    __slots__ = ("runtime", "name", "node")

    def __init__(
        self,
        runtime,
        partitions: list[list[Any]] | None = None,
        name: str = "rdd",
        node: PlanNode | None = None,
    ):
        self.runtime = runtime
        self.name = name
        if node is None:
            node = PlanNode(
                "source", label=name, node_id=runtime.next_plan_id()
            )
            node.cached = partitions if partitions is not None else []
            if partitions:
                # Source data is a driver-resident cache like any persist
                # tap; under a memory budget it becomes spillable too.
                runtime.admit_cache(node)
        self.node = node

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        """Partition count, known without materializing (narrow ops keep it)."""
        node = self.node
        while node.cached is None:
            node = node.parent
        return len(node.cached)

    def glom(self) -> list[list[Any]]:
        """The materialized partition structure (like Spark's glom).

        Returns copies, so mutating them never corrupts a persist cache.
        """
        return [list(partition) for partition in self._materialize()]

    def persist(self) -> "Distributed":
        """Mark this collection as a materialization barrier.

        The partitions are cached at first materialization — when fusion
        reaches a persisted node it taps the fused task's intermediate
        output, so the cache fills without a dedicated stage — and reused
        until :meth:`unpersist` or ``runtime.close()`` evicts them.
        Persisting a source is a no-op: its partitions already live on the
        driver.
        """
        node = self.node
        if node.is_source or node.persisted:
            return self
        node.persisted = True
        self.runtime.register_persist(node)
        return self

    def unpersist(self) -> "Distributed":
        """Evict this collection's cached partitions (metered)."""
        self.runtime.evict(self.node)
        return self

    def explain(self) -> str:
        """Deterministic rendering of the lineage and its physical stages."""
        return LogicalPlan(self.node, self.runtime.plan_optimizer).explain()

    def _materialize(self) -> list[list[Any]]:
        return self.runtime.materialize(self.node)

    # ------------------------------------------------------------------
    # Narrow transformations (no shuffle)
    # ------------------------------------------------------------------
    def _derive(
        self,
        op: str,
        fn: Callable[[int, list[Any]], Iterable[Any]],
        name: str | None,
        default_suffix: str,
    ) -> "Distributed":
        """Append one narrow node to the lineage.

        An anonymous node contributes just its operator label to the
        composite name of the stage it fuses into.
        """
        runtime = self.runtime
        node = PlanNode(
            op, label=name, fn=fn, parent=self.node,
            node_id=runtime.next_plan_id(),
        )
        return Distributed(
            runtime, name=name or f"{self.name}.{default_suffix}", node=node
        )

    def map(self, fn: Callable[[Any], Any], name: str | None = None) -> "Distributed":
        return self._derive("map", _ElementTask(fn), name, "map")

    def filter(
        self, predicate: Callable[[Any], bool], name: str | None = None
    ) -> "Distributed":
        return self._derive("filter", _FilterTask(predicate), name, "filter")

    def map_partitions(
        self,
        fn: Callable[[list[Any]], Iterable[Any]],
        name: str | None = None,
    ) -> "Distributed":
        return self._derive(
            "mapPartitions", _PartitionTask(fn), name, "mapPartitions"
        )

    def map_partitions_with_index(
        self,
        fn: Callable[[int, list[Any]], Iterable[Any]],
        name: str | None = None,
    ) -> "Distributed":
        """Lazily apply ``fn(partition_index, items)`` to each partition.

        Execution happens at the next action: the plan layer fuses this
        node with its narrow neighbours and the runtime's backend executes
        the composed task (see
        :func:`repro.distengine.backends.execute_task`), which times it
        and applies fault-injection retries.
        """
        return self._derive(
            "mapPartitionsWithIndex", fn, name, "mapPartitionsWithIndex"
        )

    # ------------------------------------------------------------------
    # Wide transformation (shuffle)
    # ------------------------------------------------------------------
    def combine_by_key(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        n_partitions: int | None = None,
        name: str | None = None,
    ) -> "Distributed":
        """Group ``(key, value)`` elements by key, Spark's combineByKey.

        The map side is a narrow node — it fuses with upstream
        transformations — but the shuffle is a barrier: the lineage up to
        the map side materializes here.  Partial combiners are
        hash-partitioned across the network (charged to the shuffle
        ledger; placement uses
        :func:`~repro.distengine.shuffle.stable_hash`, so it is identical
        across processes and ``PYTHONHASHSEED`` values), then merged per
        target partition.  The result is a new source node: shuffled data
        has no narrow lineage to recompute from.

        The bucketing happens inside the map tasks and the driver routes
        whole buckets — O(partitions) work; under a memory budget, map-side
        combiner state that outgrows its per-task share spills sorted runs
        merged back on the reduce side.  ``merge_value``/``merge_combiners``
        must be associative with ``create_combiner`` (Spark's combiner
        contract) — the merge *order* within a bucket is deterministic, but
        a map task that spills pre-combines in smaller splits.
        """
        stage_name = name or f"{self.name}.combineByKey"
        target_count = n_partitions or self.n_partitions or 1
        runtime = self.runtime
        shuffle_id = runtime.next_shuffle_id()
        spill_dir = runtime.shuffle_spill_dir()
        spill_threshold = None
        if spill_dir is not None:
            # Each map task gets an equal share of the cluster budget for
            # its combiner state; computed driver-side from config, so the
            # spill pattern is deterministic and backend-invariant.
            spill_threshold = max(
                1,
                runtime.config.memory_budget // max(1, self.n_partitions),
            )
        map_node = PlanNode(
            "combineByKey.bucket",
            label=f"{stage_name}.map",
            fn=_CombineMapTask(
                create_combiner, merge_value, target_count=target_count,
                spill_dir=spill_dir, spill_threshold=spill_threshold,
                shuffle_id=shuffle_id,
            ),
            parent=self.node,
            node_id=runtime.next_plan_id(),
        )
        outputs = runtime.materialize(map_node)

        # Driver-side work is O(source partitions × buckets): per map
        # output, splice in any spilled runs (oldest first) and then the
        # in-memory bucket, accumulating the pre-measured per-bucket bytes.
        # First-occurrence key order across a source's runs + remainder
        # equals its global insertion order, so reduce-side merges are
        # order-identical with or without spilling.
        started = time.perf_counter()
        bucket_bytes = [0] * target_count
        bucket_spills = [0] * target_count
        segments: list[list] = [[] for _ in range(target_count)]
        run_files: list[str] = []
        spill_write_bytes = 0
        fetch_bytes = 0
        for (output,) in outputs:
            for run in output.runs:
                run_files.append(run.path)
                spill_write_bytes += run.file_bytes
                for index in range(target_count):
                    if run.lengths[index]:
                        segments[index].append(
                            _SpillSegment(
                                run.path, run.offsets[index],
                                run.lengths[index],
                            )
                        )
                        bucket_bytes[index] += run.pair_bytes[index]
                        bucket_spills[index] += 1
                        fetch_bytes += run.lengths[index]
            for index in range(target_count):
                if output.buckets[index]:
                    segments[index].append(output.buckets[index])
                bucket_bytes[index] += output.bucket_bytes[index]
        runtime.metrics.counter(
            "shuffle_routing_seconds_total", stage=stage_name
        ).inc(time.perf_counter() - started)
        if run_files:
            # Spilled runs are disk I/O, not network traffic: the write
            # happened in the map task, the read happens in the reduce task,
            # both metered here from the run metadata (deterministic under
            # every backend).
            runtime.metrics.counter(
                "shuffle_spill_total", stage=stage_name
            ).inc(len(run_files))
            runtime.record_transfer(
                TransferKind.SPILL, f"{stage_name}.spill", spill_write_bytes
            )
            runtime.record_transfer(
                TransferKind.SPILL, f"{stage_name}.fetch", fetch_bytes
            )
        runtime.record_shuffle_buckets(
            stage_name, bucket_bytes,
            bucket_segments=[len(bucket) for bucket in segments],
            bucket_spills=bucket_spills,
        )

        new_partitions = runtime.run_stage(
            f"{stage_name}.reduce",
            _ShuffleReduceTask(merge_combiners),
            list(enumerate(segments)),
        )
        for path in run_files:
            if os.path.exists(path):
                os.remove(path)
        return Distributed(runtime, new_partitions, name=stage_name)

    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        n_partitions: int | None = None,
        name: str | None = None,
    ) -> "Distributed":
        return self.combine_by_key(
            create_combiner=_identity,
            merge_value=fn,
            merge_combiners=fn,
            n_partitions=n_partitions,
            name=name or f"{self.name}.reduceByKey",
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def collect(self, name: str | None = None) -> list[Any]:
        """Materialize and pull every element to the driver (metered)."""
        stage_name = name or f"{self.name}.collect"
        flat = [item for partition in self._materialize() for item in partition]
        self.runtime.record_transfer(
            TransferKind.COLLECT, stage_name, estimate_bytes(flat)
        )
        return flat

    def count(self, name: str | None = None) -> int:
        """Materialize and count the elements.

        Only the per-partition counts cross the wire, so one scalar's worth
        of bytes is charged under a stable ``"<name>.count"`` stage name —
        greppable in the ledger and trace instead of hiding in a generic
        collect.
        """
        stage_name = name or f"{self.name}.count"
        total = sum(len(partition) for partition in self._materialize())
        self.runtime.record_transfer(
            TransferKind.COLLECT, stage_name, estimate_bytes(total)
        )
        return total

    def reduce(self, fn: Callable[[Any, Any], Any], name: str | None = None) -> Any:
        """Materialize, collect, and fold the elements on the driver."""
        items = self.collect(name=name or f"{self.name}.reduce")
        if not items:
            raise ValueError("reduce of an empty collection")
        accumulator = items[0]
        for item in items[1:]:
            accumulator = fn(accumulator, item)
        return accumulator

    def __repr__(self) -> str:
        return f"Distributed({self.name!r}, partitions={self.n_partitions})"
