"""Lazy lineage and execution planning: fuse narrow stages before dispatch.

This module is the engine's answer to Spark's DAG scheduler.  A
:class:`~repro.distengine.rdd.Distributed` transformation no longer runs a
stage — it appends a :class:`PlanNode` to a lineage DAG.  When an action
needs data, :class:`LogicalPlan` walks the DAG and the
:class:`PlanOptimizer` groups each maximal run of narrow transformations
into one :class:`PhysicalStage`, executed as a single composed task per
partition (:class:`FusedChainTask`) through ``runtime.run_plan``.  A
``map → filter → map`` pipeline therefore costs one task launch, one span,
and one scheduler wave instead of three — the engine-level analogue of the
paper's "never materialize the intermediates" argument (PAPER.md §IV).

Persistence is a real barrier with a twist: fusion runs *through* a
persisted-but-not-yet-cached node.  The node joins the fused chain as a
**tap** — the composed task captures that intermediate output and ships it
back with the final result, so the persist point is populated by the very
stage that first needed it, without a separate materialization dispatch.
Subsequent materializations stop at the cached node (a metered cache hit).

Everything here is deterministic: node ids come from a per-runtime counter,
stage names are the ``"+"``-joined segments of the fused chain, and
:meth:`LogicalPlan.explain` renders the same tree on every run — which is
what lets a plan snapshot live under ``tests/goldens/``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = [
    "PlanNode",
    "PhysicalStage",
    "PlanOptimizer",
    "LogicalPlan",
    "FusedChainTask",
]

#: Display label per operator, used when a transformation was not given an
#: explicit stage name.
_OP_LABELS = {
    "source": "source",
    "map": "map",
    "filter": "filter",
    "mapPartitions": "mapPartitions",
    "mapPartitionsWithIndex": "mapPartitionsWithIndex",
    "combineByKey.bucket": "combineByKey.bucket",
}


class PlanNode:
    """One operator in a lineage DAG.

    A node is either a ``source`` (its ``cached`` partitions are the data
    handed to ``parallelize``/``from_partitions``) or a narrow
    transformation of its ``parent``: ``fn(partition_index, items)`` maps
    one input partition to one output partition.  ``persisted`` marks a
    materialization barrier; ``cached`` holds the materialized partitions
    once they exist.  ``node_id`` comes from the owning runtime's counter,
    so :meth:`LogicalPlan.explain` output is deterministic.
    """

    __slots__ = ("op", "label", "fn", "parent", "persisted", "cached", "node_id")

    def __init__(
        self,
        op: str,
        label: str | None = None,
        fn: Callable[[int, list], Any] | None = None,
        parent: "PlanNode | None" = None,
        node_id: int = 0,
    ):
        self.op = op
        self.label = label
        self.fn = fn
        self.parent = parent
        self.persisted = False
        self.cached: list[list] | None = None
        self.node_id = node_id

    @property
    def is_source(self) -> bool:
        return self.op == "source"

    def segment(self) -> str:
        """This node's contribution to a composite stage name."""
        if self.label:
            return self.label
        if self.persisted:
            return "cache-build"
        return _OP_LABELS.get(self.op, self.op)

    def __repr__(self) -> str:
        state = "cached" if self.cached is not None else "lazy"
        return f"PlanNode(#{self.node_id} {self.op} {self.segment()!r}, {state})"


class FusedChainTask:
    """Composed per-partition payload for a fused chain of narrow ops.

    Applies each chain function in order to the partition.  Outputs at
    ``taps`` positions — persisted-but-uncached nodes the chain fused
    through — are captured and returned alongside the final output, so the
    driver can populate the persist caches without a second dispatch.  The
    task returns a single-element partition wrapping ``(final, taps)``;
    ``runtime.run_plan`` unwraps it.  Attribute-carrying and module-level,
    so it pickles to process-pool workers like every other stage payload.
    """

    __slots__ = ("fns", "taps")

    def __init__(self, fns, taps):
        self.fns = tuple(fns)
        self.taps = tuple(taps)

    def __call__(self, index: int, items: list) -> list:
        out = items
        captured = []
        for position, fn in enumerate(self.fns):
            out = list(fn(index, out))
            if position in self.taps:
                captured.append((position, out))
        return [(out, captured)]


class PhysicalStage:
    """One dispatchable stage: a chain of nodes fused into a single task.

    ``nodes`` are in execution order (upstream first).  The stage name is
    the ``"+"``-joined segment of every fused node, so composite names like
    ``"map+filter+cache-build"`` flow into spans, :class:`StageReport`\\ s,
    the retry/speculation path, and the ledger.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = tuple(nodes)

    @property
    def name(self) -> str:
        return "+".join(node.segment() for node in self.nodes)

    @property
    def tap_positions(self) -> tuple[int, ...]:
        """Chain positions whose output must be captured for a persist cache.

        The terminal node is excluded — its output *is* the stage result
        and is cached directly by the executor when persisted.
        """
        return tuple(
            position
            for position, node in enumerate(self.nodes[:-1])
            if node.persisted
        )

    def __repr__(self) -> str:
        return f"PhysicalStage({self.name!r})"


class PlanOptimizer:
    """Groups a lineage DAG's nodes into dispatchable physical stages.

    Each maximal chain of narrow transformations becomes one stage; chains
    run *through* persisted nodes that are not cached yet, capturing their
    outputs as taps so ``persist()`` still materializes exactly once.
    """

    __slots__ = ()

    def chain_for(self, node: PlanNode) -> tuple[list[PlanNode], PlanNode]:
        """The fusable chain ending at ``node``, plus the chain's input node.

        The chain is upstream-first; the input is the nearest ancestor
        with materialized partitions (a source, or a cached persist point).
        """
        chain = [node]
        cursor = node.parent
        while cursor is not None and cursor.cached is None:
            chain.append(cursor)
            cursor = cursor.parent
        chain.reverse()
        return chain, cursor

    def plan(self, node: PlanNode) -> list[PhysicalStage]:
        """The ordered stages materializing ``node`` would dispatch now.

        Pure planning — nothing runs.  Nodes an earlier planned stage
        would have cached count as materialized for the stages after it.
        """
        stages: list[PhysicalStage] = []
        self._plan(node, stages, set())
        return stages

    def _plan(self, node, stages, assumed_cached) -> None:
        if node.cached is not None or node in assumed_cached:
            return
        chain = [node]
        cursor = node.parent
        while (
            cursor is not None
            and cursor.cached is None
            and cursor not in assumed_cached
        ):
            chain.append(cursor)
            cursor = cursor.parent
        chain.reverse()
        if cursor is not None:
            self._plan(cursor, stages, assumed_cached)
        stages.append(PhysicalStage(chain))
        for member in chain:
            if member.persisted:
                assumed_cached.add(member)


class LogicalPlan:
    """A lineage DAG rooted at one result node, plus its optimizer.

    :meth:`execute` materializes the root's partitions, dispatching only
    the stages whose outputs are not already cached; :meth:`explain`
    renders the lineage and the physical stages deterministically.
    """

    __slots__ = ("node", "optimizer")

    def __init__(self, node: PlanNode, optimizer: PlanOptimizer | None = None):
        self.node = node
        self.optimizer = optimizer if optimizer is not None else PlanOptimizer()

    def execute(self, runtime) -> list[list]:
        """Materialize the root node's partitions through ``runtime``."""
        return self._ensure(self.node, runtime)

    def _ensure(self, node: PlanNode, runtime) -> list[list]:
        # `cached is not None` covers driver lists, worker-resident
        # references, and the storage tier's SpilledPartitions markers;
        # `cached_partitions` pages spilled entries back in and leaves
        # references for the next stage's workers to resolve.
        if node.cached is not None:
            if node.persisted and not node.is_source:
                runtime.count_cache_hits(len(node.cached))
            return runtime.cached_partitions(node)
        chain, base_node = self.optimizer.chain_for(node)
        base = self._ensure(base_node, runtime)
        stage = PhysicalStage(chain)
        finals, tapped = runtime.run_plan(
            stage.name,
            [member.fn for member in chain],
            list(enumerate(base)),
            {
                position: member.node_id
                for position, member in enumerate(chain)
                if member.persisted
            },
        )
        for position, partitions in tapped:
            chain[position].cached = partitions
            runtime.count_partitions_cached(len(partitions))
            runtime.admit_cache(chain[position])
        if node.persisted:
            node.cached = finals
            runtime.count_partitions_cached(len(finals))
            runtime.admit_cache(node)
        return finals

    def explain(self) -> str:
        """A deterministic rendering of the lineage and its physical plan.

        The logical section lists the DAG result-first (ids are the owning
        runtime's creation order); the physical section lists the stages a
        materialization would dispatch *right now*, so the same plan
        explained before and after an action shows the cache taking effect.
        """
        lines = ["== logical lineage (result first) =="]
        cursor: PlanNode | None = self.node
        while cursor is not None:
            flags = []
            if cursor.persisted:
                flags.append("persist")
            if cursor.cached is not None:
                flags.append(f"cached[{len(cursor.cached)}]")
            suffix = f"  ({', '.join(flags)})" if flags else ""
            lines.append(f"#{cursor.node_id} {cursor.op} {cursor.segment()!r}{suffix}")
            cursor = cursor.parent
        lines.append("== physical stages (fused) ==")
        stages = self.optimizer.plan(self.node)
        if not stages:
            lines.append("(fully materialized — nothing to dispatch)")
        for number, stage in enumerate(stages, start=1):
            lines.append(f"stage {number}: {stage.name}")
            taps = stage.tap_positions
            if taps:
                names = ", ".join(stage.nodes[p].segment() for p in taps)
                lines.append(f"  tap -> cache: {names}")
            terminal = stage.nodes[-1]
            if terminal.persisted and terminal.cached is None:
                lines.append(f"  cache result: {terminal.segment()}")
        return "\n".join(lines)
