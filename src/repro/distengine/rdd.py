"""A partitioned, Spark-like distributed collection with lazy lineage.

:class:`Distributed` is the engine's RDD analogue.  Transformations are
**lazy**: ``map`` and ``map_partitions_with_index`` append a
:class:`~repro.distengine.plan.PlanNode` to a lineage DAG and return
immediately.  Actions (``collect``, ``count``, ``reduce``, ``glom``)
hand the DAG to the plan layer (:mod:`repro.distengine.plan`), which fuses
each maximal chain of narrow transformations into one composed task per
partition before dispatching through ``runtime.run_plan`` — a
``map → map_partitions_with_index → map`` pipeline costs one stage, not
three, and the fused stage carries the composite name
(``"map+mapPartitionsWithIndex+..."``) into spans, reports, and the retry
path.

``persist()`` is a real materialization barrier: the partitions are cached
at first materialization (metered by ``partitions_cached_total``) and
reused on every later access (``cache_hits_total``) until ``unpersist()``
or ``runtime.close()`` evicts them.

Every transformation is narrow: DBTF's one all-to-all exchange (the
partitioning shuffle of Algorithm 3) is charged to the shuffle ledger
directly by :func:`repro.core.incremental.prepare_mode_partitions`.  All
stage payloads remain module-level callables holding their captured values
as attributes, so they stay picklable and every transformation works
unchanged under the process backend (provided the user-supplied functions
are themselves picklable).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from .plan import LogicalPlan, PlanNode
from .shuffle import TransferKind, estimate_bytes

__all__ = ["Distributed"]


class _ElementTask:
    """``map`` payload: apply ``fn`` to every element of a partition."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, _index: int, items: list[Any]) -> list[Any]:
        return [self.fn(item) for item in items]


class Distributed:
    """A lazily evaluated, partitioned collection bound to a runtime.

    The collection takes ownership of ``partitions`` without copying: every
    construction site (``parallelize``/``from_partitions`` ingestion)
    already hands over freshly built lists.  Callers that
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
    # Narrow transformations
    # ------------------------------------------------------------------
    def _derive(
        self,
        op: str,
        fn: Callable[[int, list[Any]], Iterable[Any]],
        name: str | None,
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
            runtime, name=name or f"{self.name}.{op}", node=node
        )

    def map(self, fn: Callable[[Any], Any], name: str | None = None) -> "Distributed":
        return self._derive("map", _ElementTask(fn), name)

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
        return self._derive("mapPartitionsWithIndex", fn, name)

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
        # Worker-resident partitions answer len() without being fetched.
        partitions = self.runtime.materialize(self.node, fetch=False)
        total = sum(len(partition) for partition in partitions)
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
