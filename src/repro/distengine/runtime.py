"""The simulated distributed runtime: stages, timing, and cost replay.

This is the offline stand-in for a Spark cluster.  Work still *really runs*
on the host — through the configured stage-executor backend, which may be
sequential or genuinely parallel — but every partition task is timed and
every network transfer is metered, so :meth:`SimulatedRuntime.simulated_time`
can report what the same execution would have cost on an M-machine cluster.
The metered numbers are backend-invariant (see DESIGN.md §3 and "Execution
backends" for why this substitution preserves the paper's measurements).
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any

from ..observability import MetricsRegistry, SpanKind, Tracer
from ..resilience import RetryPolicy, SpeculationConfig, plan_speculation
from ..storage import MemoryBudget, PartitionSpillStore
from .backends import Backend, ResidentPartition, make_backend
from .broadcast import Broadcast
from .cluster import DEFAULT_CLUSTER, ClusterConfig
from .faults import FaultInjector
from .plan import FusedChainTask, LogicalPlan, PlanNode, PlanOptimizer
from .rdd import Distributed
from .scheduler import makespan
from .shuffle import (
    ShuffleLedger,
    TransferKind,
    estimate_bytes,
    estimate_bytes_cached,
    stable_hash,
)

__all__ = ["SimulatedRuntime", "StageReport", "ExecutionReport"]

#: Source of per-runtime scope tokens: worker-resident entries are keyed by
#: their runtime's token, so runtimes leasing one pool never collide.
_SCOPES = itertools.count(1)

#: Bucket bounds of the ``shuffle_bucket_bytes`` histogram.  The registry
#: default is tuned for task durations in seconds; shuffle buckets are byte
#: counts, so they get power-of-four byte bounds from one cache line up to
#: a paper-scale unfolding slab.
SHUFFLE_BYTE_BUCKETS = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
)


@dataclass(frozen=True)
class StageReport:
    """Measured task durations of one stage (one task per partition).

    ``retry_waits`` and ``failure_counts`` are the per-task simulated
    backoff waits and injected fault counts (empty tuples when the stage
    ran without a retry policy / injector — treated as all-zero by the
    cost replay).
    """

    name: str
    durations: tuple[float, ...]
    retry_waits: tuple[float, ...] = ()
    failure_counts: tuple[int, ...] = ()

    @property
    def n_tasks(self) -> int:
        return len(self.durations)

    @property
    def total_cpu_time(self) -> float:
        return sum(self.durations)

    @property
    def total_retry_wait(self) -> float:
        return sum(self.retry_waits)


@dataclass(frozen=True)
class ExecutionReport:
    """Cost summary of everything a runtime executed."""

    n_stages: int
    total_cpu_time: float
    shuffle_bytes: int
    broadcast_bytes: int
    collect_bytes: int
    simulated_time: float
    n_machines: int
    #: Resilience accounting (zero when no retry policy / speculation ran).
    total_retry_wait: float = 0.0
    tasks_speculated: int = 0
    speculative_wins: int = 0
    #: Serialized task-payload bytes shipped at stage launch (closure
    #: capture); already summed over tasks, crosses the network once.
    task_bytes: int = 0
    #: Local disk I/O of the out-of-core storage tier (cache spill + load
    #: under a memory budget); zero without one.  Deliberately excluded
    #: from :attr:`network_bytes` — spill traffic never crosses the wire.
    spill_bytes: int = 0

    @property
    def network_bytes(self) -> int:
        return (
            self.shuffle_bytes + self.broadcast_bytes + self.collect_bytes
            + self.task_bytes
        )


class SimulatedRuntime:
    """Executes distributed collections while metering time and traffic."""

    def __init__(
        self,
        config: ClusterConfig = DEFAULT_CLUSTER,
        fault_injector: "FaultInjector | None" = None,
        backend: "str | Backend | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        speculation: "SpeculationConfig | None" = None,
        owns_backend: bool = True,
    ):
        self.config = config
        self.ledger = ShuffleLedger()
        self.stages: list[StageReport] = []
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        # An explicit speculation config overrides the cluster config's.
        self.speculation = (
            speculation if speculation is not None else config.speculation
        )
        #: ``(stage, partition)`` pairs whose fault count tripped the retry
        #: policy's ``blacklist_after`` threshold (observational, modelling
        #: Spark's executor blacklisting).
        self.blacklisted_partitions: set[tuple[str, int]] = set()
        self._broadcast_base_bytes = 0
        # Every runtime carries a metrics registry (counters are cheap and
        # back the task-failure facade); the tracer is opt-in via
        # ``ClusterConfig(tracing=True)`` or an explicit instance because
        # span collection inside every task is not free.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else (
            Tracer() if config.tracing else None
        )
        # Kernel-dispatch configuration must land before the backend is
        # built: process pools inherit the dispatcher via fork state or the
        # environment variables that configure() exports.
        if config.kernel_tier is not None or config.autotune_cache is not None:
            from ..bitops import dispatch as kernel_dispatch

            kernel_dispatch.configure(
                tier=config.kernel_tier, cache_path=config.autotune_cache
            )
        # `backend` overrides the cluster config's choice — handy for tests
        # that inject a pre-built (or instrumented) executor.
        self.backend = make_backend(
            backend if backend is not None else config.backend, config.n_workers
        )
        # A runtime leased over a shared pool (see ``distengine.lease``)
        # must not shut the pool down when the job finishes; only the pool
        # owner closes it.
        self._owns_backend = owns_backend
        self._closed = False
        #: Token keying this runtime's worker-resident partitions and
        #: broadcast values (see ``backends.ProcessBackend``).
        self.scope = next(_SCOPES)
        # Plan layer: node ids are handed out in creation order (so
        # ``explain()`` output is deterministic) and persisted nodes are
        # tracked for eviction.
        self.plan_optimizer = PlanOptimizer()
        self._plan_counter = 0
        # Shuffle ids are handed out per wide operation so every spill-run
        # file of every map task lands at a distinct, deterministic path.
        self._shuffle_counter = 0
        self._persisted_nodes: list[PlanNode] = []
        # Out-of-core storage tier: only constructed under an explicit
        # memory budget, so the default path pays one None check per cache
        # access and records zero storage spans/counters.
        self.storage: PartitionSpillStore | None = None
        if config.memory_budget is not None:
            self.storage = PartitionSpillStore(
                MemoryBudget(config.memory_budget, metrics=self.metrics),
                spill_dir=config.spill_dir,
                measure=estimate_bytes,
                record_io=self._record_spill_io,
                tracer=self.tracer,
                resolve=self._pull_resident,
            )
        # Memmap-backed unfolding files (built lazily by the first caller):
        # only meaningful alongside the storage tier, which also provides
        # the spill directory the files live under.
        self._unfolding_store = None

    def close(self) -> None:
        """Evict every persist cache, then release execution resources.

        The worker pool is shut down only when this runtime owns it; a
        runtime leased over a shared backend releases all of its private
        state (caches, worker-resident partitions and broadcast values —
        including those of a stage that failed midway) and leaves the pool
        warm.  Idempotent, so leases and ``finally`` blocks may both call it.
        """
        if self._closed:
            return
        self._closed = True
        self.evict_all()
        if self._unfolding_store is not None:
            self._unfolding_store.close()
            self._unfolding_store = None
        if self.storage is not None:
            self.storage.close()
        if self._owns_backend:
            self.backend.close()
        else:
            self.backend.release(self.scope)

    def __enter__(self) -> "SimulatedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Data creation
    # ------------------------------------------------------------------
    def parallelize(
        self, items: list[Any], n_partitions: int | None = None, name: str = "data"
    ) -> Distributed:
        """Split a driver-side list into roughly equal contiguous partitions."""
        count = self.config.total_slots if n_partitions is None else n_partitions
        if count <= 0:
            raise ValueError(f"n_partitions must be positive, got {count}")
        items = list(items)
        partitions: list[list[Any]] = [[] for _ in range(count)]
        if items:
            base, extra = divmod(len(items), count)
            cursor = 0
            for index in range(count):
                size = base + (1 if index < extra else 0)
                partitions[index] = items[cursor : cursor + size]
                cursor += size
        return Distributed(self, partitions, name=name)

    def from_partitions(
        self, partitions: list[list[Any]], name: str = "data"
    ) -> Distributed:
        """Wrap pre-built partitions without re-splitting.

        This ingestion boundary is the one place partitions are copied:
        every downstream stage hands freshly built lists to
        :class:`Distributed`, which takes ownership without copying.
        """
        return Distributed(self, [list(p) for p in partitions], name=name)

    def unfolding_storage(self):
        """The runtime's memmap-backed unfolding store (budgeted runs only).

        Returns ``None`` when no memory budget is configured — the default
        path must build nothing and touch no disk.  Under a budget, a
        :class:`~repro.storage.MmapUnfoldingStore` is created lazily inside
        the spill store's directory, so one ``close()`` tears down both
        tiers and a leased runtime's unfolding files share its job-scoped
        spill root.
        """
        if self.storage is None:
            return None
        if self._unfolding_store is None:
            from ..storage import MmapUnfoldingStore

            self._unfolding_store = MmapUnfoldingStore(
                os.path.join(self.storage.directory, "unfoldings")
            )
        return self._unfolding_store

    def broadcast(self, value: Any, name: str = "broadcast") -> Broadcast:
        """Ship one read-only copy of ``value`` toward every machine.

        Returns a content-addressed
        :class:`~repro.distengine.broadcast.BroadcastHandle`.  Task
        payloads embed the handle instead of the value: pickling a handle
        drops the value, so referencing a broadcast from N per-column tasks
        costs N × ~32 bytes instead of N copies of the arrays.  When the
        backend does not share driver memory (process workers) the value is
        registered with it and rides once to each worker, on that worker's
        next stage message, into its resident store — one transfer per
        worker per value, which is exactly what the single BROADCAST ledger
        charge models.  ``close()`` drops the value from the workers again.

        Every call is charged, even for a payload equal to an earlier one:
        the paper's cost analysis counts the per-iteration factor
        broadcasts, and several reproduced lemma measurements rely on it.
        """
        content_id = f"{stable_hash(value):016x}"
        # Broadcast payloads are fingerprinted and sized — the memoized
        # sizer makes the repeated walks over one factor-matrix payload a
        # dict hit.
        n_bytes = estimate_bytes_cached(value)
        self._broadcast_base_bytes += n_bytes
        # The ledger stores the per-machine copy; replay multiplies by M.
        self.record_transfer(TransferKind.BROADCAST, name, n_bytes)
        handle = Broadcast(value, content_id, name, n_bytes, self.scope)
        self.backend.register_broadcast(handle)
        return handle

    # ------------------------------------------------------------------
    # Plan layer: lazy lineage, fusion, persist caches
    # ------------------------------------------------------------------
    def next_plan_id(self) -> int:
        """Deterministic lineage-node id (creation order per runtime)."""
        self._plan_counter += 1
        return self._plan_counter

    def materialize(self, node: PlanNode, fetch: bool = True) -> list[list]:
        """Partitions of ``node``, dispatching whatever stages are missing.

        With ``fetch`` (driver reads: ``glom``, ``collect``) worker-resident
        partitions are pulled back unmetered; without it they stay
        :class:`~repro.distengine.backends.ResidentPartition` references,
        which still answer ``len()`` (``count``).
        """
        partitions = LogicalPlan(node, self.plan_optimizer).execute(self)
        return self.backend.fetch(partitions) if fetch else partitions

    def register_persist(self, node: PlanNode) -> None:
        """Track a persisted node so ``close()`` can evict its cache."""
        if node not in self._persisted_nodes:
            self._persisted_nodes.append(node)

    def evict(self, node: PlanNode, count: bool = True) -> None:
        """Drop one node's cached partitions (and its persist registration)."""
        if node in self._persisted_nodes:
            self._persisted_nodes.remove(node)
        node.persisted = False
        if node.cached is not None and not node.is_source:
            if count:
                self.metrics.counter("partitions_evicted_total").inc(
                    len(node.cached)
                )
            # A spilled cache is a marker, never worker-resident.
            if isinstance(node.cached, list) and any(
                isinstance(p, ResidentPartition) for p in node.cached
            ):
                self.backend.release(self.scope, node.node_id)
            node.cached = None
        if self.storage is not None:
            self.storage.discard(node)

    def evict_all(self, count: bool = True) -> None:
        """Evict every registered persist cache (``close()``/``reset()``)."""
        for node in list(self._persisted_nodes):
            self.evict(node, count=count)

    def count_partitions_cached(self, n_partitions: int) -> None:
        self.metrics.counter("partitions_cached_total").inc(n_partitions)

    def count_cache_hits(self, n_partitions: int) -> None:
        self.metrics.counter("cache_hits_total").inc(n_partitions)

    # ------------------------------------------------------------------
    # Out-of-core storage tier (no-ops without a memory budget)
    # ------------------------------------------------------------------
    def cached_partitions(self, node: PlanNode) -> "list[list] | None":
        """The partitions behind ``node.cached``, paging spilled ones in."""
        if self.storage is not None:
            return self.storage.fetch(node)
        return node.cached

    def admit_cache(self, node: PlanNode) -> None:
        """Hand a freshly cached node to the storage tier for budgeting."""
        if self.storage is not None:
            self.storage.admit(node)

    def _pull_resident(self, partitions: list) -> list:
        """Storage spill hook: swap worker-resident references for items.

        Fetches (unmetered) and drops the entries from the workers.  The
        swap happens in place because a stage that just produced a
        persisted result still returns this very list to its caller.
        """
        partitions[:] = self.backend.fetch(partitions, release=True)
        return partitions

    def _record_spill_io(self, stage: str, n_bytes: int) -> None:
        """Ledger/metrics/trace entry for one storage spill or load."""
        self.record_transfer(TransferKind.SPILL, stage, n_bytes)

    def run_plan(
        self,
        stage_name: str,
        fns: list,
        indexed_partitions,
        persist_ids: "dict[int, int] | None" = None,
    ) -> tuple[list[list], list[tuple[int, list[list]]]]:
        """Execute a fused chain of narrow task functions as one stage.

        ``fns`` are applied in order inside a single
        :class:`~repro.distengine.plan.FusedChainTask` per partition;
        ``persist_ids`` maps the chain positions of persisted nodes to
        their node ids.  Non-terminal ones are taps whose intermediate
        output must come back for persist caches.  Single-function chains
        skip the wrapper entirely, so their task payload is the function
        itself.  Returns ``(final_partitions, tapped)`` with
        ``tapped`` sorted by chain position; all metering — durations,
        counters, retries, speculation, spans — flows through
        :meth:`run_stage` under the composite ``stage_name``.

        Under a backend that does not share driver memory the persisted
        outputs stay in the workers, and the returned partitions at those
        positions are :class:`~repro.distengine.backends.ResidentPartition`
        references.
        """
        persist_ids = persist_ids or {}
        retain = None
        if persist_ids and not self.backend.shares_driver_memory:
            retain = (self.scope, persist_ids)
        last = len(fns) - 1
        tap_positions = tuple(sorted(p for p in persist_ids if p != last))
        if len(fns) == 1:
            return self.run_stage(
                stage_name, fns[0], indexed_partitions, retain
            ), []
        task = FusedChainTask(fns, tap_positions)
        wrapped = self.run_stage(stage_name, task, indexed_partitions, retain)
        finals: list[list] = []
        tapped: dict[int, list[list]] = {
            position: [] for position in tap_positions
        }
        for partition in wrapped:
            final, captured = partition[0]
            finals.append(final)
            for position, intermediate in captured:
                tapped[position].append(intermediate)
        return finals, sorted(tapped.items())

    # ------------------------------------------------------------------
    # Stage execution and metering
    # ------------------------------------------------------------------
    def run_stage(
        self, stage_name: str, task_fn, indexed_partitions, retain=None
    ) -> list[list]:
        """Execute one stage through the backend and meter the outcome.

        Returns the produced partitions ordered by partition index; the
        measured per-task durations and fault-retry counts are recorded on
        this runtime.  This is the single choke point all task execution
        flows through, so serial, thread, and process backends feed the
        cost model — and the trace/metrics layer — identically.
        ``retain`` names worker-resident persist points (see
        :meth:`run_plan`).
        """
        tracing = self.tracer is not None
        # The serialized task payload ships to every task at stage launch —
        # Spark's closure-capture cost.  Metering it is what makes embedding
        # arrays in a payload visibly more expensive than referencing a
        # BroadcastHandle (~32 bytes on the wire).
        indexed_partitions = list(indexed_partitions)
        payload_bytes = estimate_bytes(task_fn)
        if payload_bytes and indexed_partitions:
            self.record_transfer(
                TransferKind.TASK, stage_name,
                payload_bytes * len(indexed_partitions),
            )
        started = time.perf_counter()
        stage = self.backend.run_stage(
            stage_name, task_fn, indexed_partitions, self.fault_injector,
            collect_trace=tracing, retry_policy=self.retry_policy,
            retain=retain,
        )
        wall_time = time.perf_counter() - started
        self.record_stage(
            stage_name, stage.durations,
            retry_waits=stage.retry_waits,
            failure_counts=stage.failure_counts,
        )

        registry = self.metrics
        registry.counter("stages_total").inc()
        registry.counter("tasks_total", stage=stage_name).inc(len(stage.durations))
        duration_histogram = registry.histogram(
            "task_duration_seconds", stage=stage_name
        )
        for duration in stage.durations:
            duration_histogram.observe(duration)
        failures = sum(stage.failure_counts)
        if failures:
            self.count_task_failure(stage_name, failures)
        total_wait = sum(stage.retry_waits)
        if total_wait > 0.0:
            wait_histogram = registry.histogram(
                "retry_wait_seconds", stage=stage_name
            )
            for wait in stage.retry_waits:
                if wait > 0.0:
                    wait_histogram.observe(wait)
            registry.counter("retry_wait_seconds_total").inc(total_wait)
        if self.retry_policy is not None and failures:
            for index, count in enumerate(stage.failure_counts):
                if (
                    self.retry_policy.should_blacklist(count)
                    and (stage_name, index) not in self.blacklisted_partitions
                ):
                    self.blacklisted_partitions.add((stage_name, index))
                    registry.counter(
                        "partitions_blacklisted_total", stage=stage_name
                    ).inc()
        plan = None
        if self.speculation is not None and failures:
            # The plan is a pure function of deterministic inputs (fault
            # counts, seeded backoff waits) plus measured durations; counts
            # and events are recorded here, the makespan effect is replayed
            # from the StageReport in ``simulated_time``.
            plan = plan_speculation(
                stage.durations, stage.retry_waits, stage.failure_counts,
                self.speculation,
            )
            if plan.speculated:
                registry.counter(
                    "tasks_speculated_total", stage=stage_name
                ).inc(len(plan.speculated))
                registry.counter(
                    "speculative_wins_total", stage=stage_name
                ).inc(len(plan.wins))
        # Worker-side metric increments (cache builds, bitmatrix op counts)
        # merge in partition order; counters commute, so the totals are
        # identical under every backend.
        for deltas in stage.metric_deltas:
            if deltas:
                registry.merge_deltas(deltas)

        if tracing:
            stage_span_id = self.tracer.add_span(
                stage_name, SpanKind.STAGE, start=started, duration=wall_time,
                n_tasks=len(stage.durations), task_failures=failures,
            )
            for task_trace in stage.traces:
                if task_trace is not None:
                    self.tracer.graft(stage_span_id, task_trace)
            if plan is not None:
                for index in plan.speculated:
                    self.tracer.event(
                        stage_name, SpanKind.SPECULATION, partition=index,
                        won=index in plan.wins,
                    )
        return stage.results

    def record_stage(
        self,
        name: str,
        durations: list[float],
        retry_waits: "list[float] | tuple[float, ...]" = (),
        failure_counts: "list[int] | tuple[int, ...]" = (),
    ) -> None:
        self.stages.append(
            StageReport(
                name, tuple(durations), tuple(retry_waits),
                tuple(failure_counts),
            )
        )

    # ------------------------------------------------------------------
    # Failure accounting (registry-backed facade)
    # ------------------------------------------------------------------
    def count_task_failure(self, stage: str, count: int = 1) -> None:
        """Compatible facade over ``task_failures_total`` in the registry."""
        self.metrics.counter("task_failures_total", stage=stage).inc(count)

    @property
    def task_failures(self) -> dict[str, int]:
        """Per-stage fault-retry counts, read back from the registry."""
        counters = self.metrics.counters().get("task_failures_total", {})
        return {
            dict(labels)["stage"]: int(value)
            for labels, value in counters.items()
        }

    @property
    def total_task_failures(self) -> int:
        return sum(self.task_failures.values())

    # ------------------------------------------------------------------
    # Network accounting
    # ------------------------------------------------------------------
    def record_transfer(self, kind: str, stage: str, n_bytes: int) -> None:
        """Meter one network transfer: ledger, metrics, and trace at once.

        This is the single entry point for shuffle/broadcast/collect bytes,
        so the byte attribution in the span tree always matches the ledger
        the cost model replays.
        """
        self.ledger.record(kind, stage, n_bytes)
        self.metrics.counter(
            "transfer_bytes_total", kind=kind, stage=stage
        ).inc(n_bytes)
        if self.tracer is not None:
            self.tracer.event(
                stage, SpanKind.TRANSFER, transfer=kind, bytes=int(n_bytes)
            )

    # ------------------------------------------------------------------
    # Shuffle plane (worker-side bucketed routing support)
    # ------------------------------------------------------------------
    def next_shuffle_id(self) -> int:
        """Deterministic per-runtime id of one wide (shuffling) operation."""
        self._shuffle_counter += 1
        return self._shuffle_counter

    def shuffle_spill_dir(self) -> "str | None":
        """Directory for map-side combiner spill runs, or ``None``.

        Only meaningful under a memory budget: the runs live inside the
        storage tier's spill directory, so one ``close()`` removes both
        and a leased runtime's shuffle runs share its job-scoped root.
        """
        if self.storage is None:
            return None
        return os.path.join(self.storage.directory, "shuffle")

    def record_shuffle_buckets(
        self,
        stage_name: str,
        bucket_bytes: "list[int]",
        bucket_segments: "list[int]",
        bucket_spills: "list[int]",
    ) -> None:
        """Meter one shuffle's reduce buckets: ledger, histogram, and events.

        The SHUFFLE ledger charge is the sum over buckets, while the
        per-bucket breakdown lands in the ``shuffle_bucket_bytes``
        histogram and one ``shuffle`` span event per bucket fetch, so the
        observability surface is backend-invariant.
        """
        self.record_transfer(
            TransferKind.SHUFFLE, stage_name, sum(bucket_bytes)
        )
        histogram = self.metrics.histogram(
            "shuffle_bucket_bytes", buckets=SHUFFLE_BYTE_BUCKETS,
            stage=stage_name,
        )
        for index, n_bytes in enumerate(bucket_bytes):
            histogram.observe(n_bytes)
            if self.tracer is not None:
                self.tracer.event(
                    stage_name, SpanKind.SHUFFLE, bucket=index,
                    bytes=int(n_bytes), segments=bucket_segments[index],
                    spilled=bucket_spills[index],
                )

    def reset(self) -> None:
        self.ledger.reset()
        self.stages.clear()
        self.blacklisted_partitions.clear()
        self._broadcast_base_bytes = 0
        # Persist caches are measurement state too: evict silently (the
        # counters are being wiped anyway) so a reset runtime re-dispatches
        # from clean lineage.
        self.evict_all(count=False)
        self.metrics.reset()
        if self.tracer is not None:
            self.tracer.reset()

    # ------------------------------------------------------------------
    # Cost replay
    # ------------------------------------------------------------------
    def simulated_time(self, n_machines: int | None = None) -> float:
        """Wall-clock estimate of this execution on an M-machine cluster.

        Per stage: the LPT makespan of its measured task durations over
        ``M × cores`` slots, a task-launch overhead per task wave, and a
        machine-independent driver latency (the serial fraction that makes
        real Spark speed-ups sublinear).  Network: shuffle, collect, and
        task-payload bytes cross the network once (the ledger already sums
        payloads over tasks); broadcast bytes are shipped once per machine.

        Resilience folds in here: each task's simulated retry-backoff wait
        extends its duration, and with speculation configured the modelled
        duplicate caps a straggler's completion at the duplicate's finish
        time (:func:`~repro.resilience.plan_speculation`) — so
        ``ExecutionReport`` charges what a real cluster would have paid for
        retries and recovered through speculation.
        """
        machines = n_machines if n_machines is not None else self.config.n_machines
        if machines <= 0:
            raise ValueError(f"n_machines must be positive, got {machines}")
        slots = machines * self.config.cores_per_machine
        compute = 0.0
        for stage in self.stages:
            if not stage.durations:
                continue
            waves = -(-stage.n_tasks // slots)  # ceil division
            compute += makespan(self._effective_durations(stage), slots)
            compute += waves * self.config.task_launch_overhead_sec
            compute += self.config.driver_latency_sec
        shuffle_bytes = self.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        collect_bytes = self.ledger.bytes_of_kind(TransferKind.COLLECT)
        task_bytes = self.ledger.bytes_of_kind(TransferKind.TASK)
        network_bytes = (
            shuffle_bytes + collect_bytes + task_bytes
            + self._broadcast_base_bytes * machines
        )
        network_time = network_bytes / self.config.network_bytes_per_sec
        # Storage-tier spill/load is local disk I/O, not network traffic:
        # it extends the driver's critical path at disk bandwidth.  Zero
        # without a memory budget, so the default replay is unchanged.
        spill_bytes = self.ledger.bytes_of_kind(TransferKind.SPILL)
        spill_time = spill_bytes / self.config.disk_bytes_per_sec
        total = compute + network_time + spill_time
        # The cost replay (the scheduler's consumer) reports its split into
        # the registry so experiments can read compute vs. network shares.
        self.metrics.gauge("simulated_compute_seconds", machines=machines).set(
            compute
        )
        self.metrics.gauge("simulated_network_seconds", machines=machines).set(
            network_time
        )
        if spill_bytes:
            self.metrics.gauge(
                "simulated_spill_seconds", machines=machines
            ).set(spill_time)
        self.metrics.gauge("simulated_time_seconds", machines=machines).set(
            total
        )
        return total

    def _effective_durations(self, stage: StageReport) -> tuple[float, ...]:
        """A stage's per-task simulated durations with resilience applied.

        Without retry waits this is the measured durations unchanged (the
        pre-resilience cost model); with waits each task is extended by its
        simulated backoff, and with speculation configured stragglers are
        capped at their modelled duplicate's finish time.
        """
        if not stage.retry_waits or not any(stage.retry_waits):
            if self.speculation is None or not any(stage.failure_counts):
                return stage.durations
        if self.speculation is not None:
            plan = plan_speculation(
                stage.durations, stage.retry_waits, stage.failure_counts,
                self.speculation,
            )
            return plan.effective_durations
        waits = stage.retry_waits or (0.0,) * stage.n_tasks
        return tuple(
            duration + wait
            for duration, wait in zip(stage.durations, waits)
        )

    def report(self, n_machines: int | None = None) -> ExecutionReport:
        machines = n_machines if n_machines is not None else self.config.n_machines
        counters = self.metrics.counters()
        speculated = sum(
            counters.get("tasks_speculated_total", {}).values()
        )
        wins = sum(counters.get("speculative_wins_total", {}).values())
        return ExecutionReport(
            n_stages=len(self.stages),
            total_cpu_time=sum(stage.total_cpu_time for stage in self.stages),
            shuffle_bytes=self.ledger.bytes_of_kind(TransferKind.SHUFFLE),
            broadcast_bytes=self._broadcast_base_bytes * machines,
            collect_bytes=self.ledger.bytes_of_kind(TransferKind.COLLECT),
            simulated_time=self.simulated_time(machines),
            n_machines=machines,
            total_retry_wait=sum(
                stage.total_retry_wait for stage in self.stages
            ),
            tasks_speculated=int(speculated),
            speculative_wins=int(wins),
            task_bytes=self.ledger.bytes_of_kind(TransferKind.TASK),
            spill_bytes=self.ledger.bytes_of_kind(TransferKind.SPILL),
        )
