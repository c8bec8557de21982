"""The factorization service: submit/status/cancel/result over shared workers.

:class:`FactorizationService` is the paper's solver stack turned into a
long-lived multi-tenant facility.  Tenants submit :class:`~.job.JobSpec`\\ s;
the service admits them through per-tenant quotas, interleaves the
admitted jobs' solver iterations under weighted fair sharing, isolates
each job's engine state behind a :class:`~repro.distengine.RuntimeFactory`
lease over ONE shared worker pool, and checkpoints every job into its own
directory so a killed service resumes every in-flight job bit-identically
on resubmission.

The execution model is cooperative, not threaded: each job is a step
generator (``dbtf_steps`` / ``cp_nway_steps`` / ``boolean_tucker_steps``)
and :meth:`FactorizationService.step` advances exactly one job by one
solver iteration per call.  Parallelism lives *below* the generators (the
shared process backend executes each iteration's stages across
workers); the scheduler on top stays single-threaded and therefore
deterministic — the interleaving for a given submission order is
identical under every backend.

Wall-clock time appears only in latency *metrics*; every scheduling
decision is made on logical counters.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core import DbtfConfig, dbtf_steps
from ..incremental import FactorizationSession
from ..distengine import DEFAULT_CLUSTER, ClusterConfig, RuntimeFactory
from ..nway import NwayCpConfig, cp_nway_steps
from ..observability import MetricsRegistry
from ..resilience import CheckpointConfig
from ..tucker import BooleanTuckerConfig, boolean_tucker_steps
from .job import Job, JobSpec, JobState, JobStatus
from .queue import JobQueue, TenantQuota
from .scheduler import FairShareScheduler

__all__ = ["ServiceConfig", "FactorizationService"]

# Job latencies span ~1ms cooperative quanta to multi-second dbtf runs.
_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0
)


@dataclass(frozen=True)
class ServiceConfig:
    """How the service runs: pool, checkpointing, capacity, quotas.

    Attributes
    ----------
    cluster:
        The shared cluster model; its backend/worker settings build the
        one worker pool every job executes through.
    checkpoint_root:
        Directory under which each job checkpoints into
        ``<root>/<job_id>/``.  ``None`` makes the service own a temporary
        root, removed on :meth:`FactorizationService.close` — durable
        resume-across-restarts requires passing a real path.
    checkpoint_every:
        Snapshot cadence in solver steps; also the preemption granularity
        (jobs are only preempted at snapshot boundaries).
    keep_last:
        Snapshots retained per job.
    max_live_jobs:
        How many jobs may hold runtimes concurrently — bounds per-job
        memory (persist caches, broadcast stores), not CPU; the worker
        pool is shared either way.
    default_quota / quotas:
        Per-tenant admission limits and fair-share weights; ``quotas``
        overrides per tenant name.
    max_pending_total:
        Global backlog cap across all tenants (``None`` = unbounded).
    """

    cluster: ClusterConfig = DEFAULT_CLUSTER
    checkpoint_root: "str | Path | None" = None
    checkpoint_every: int = 1
    keep_last: int = 2
    max_live_jobs: int = 4
    default_quota: TenantQuota = TenantQuota()
    quotas: "dict[str, TenantQuota]" = field(default_factory=dict)
    max_pending_total: "int | None" = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {self.keep_last}")
        if self.max_live_jobs < 1:
            raise ValueError(
                f"max_live_jobs must be >= 1, got {self.max_live_jobs}"
            )


class FactorizationService:
    """Multi-tenant factorization jobs over one shared worker pool."""

    def __init__(self, config: "ServiceConfig | None" = None):
        self.config = config if config is not None else ServiceConfig()
        config = self.config
        self.factory = RuntimeFactory(config.cluster)
        self.queue = JobQueue(
            default_quota=config.default_quota,
            quotas=config.quotas,
            max_pending_total=config.max_pending_total,
        )
        self.scheduler = FairShareScheduler(self.queue.quota_for)
        self.metrics = MetricsRegistry()
        self.jobs: dict[str, Job] = {}
        self._live: list[Job] = []
        self._seq = 0
        self._owns_root = config.checkpoint_root is None
        if self._owns_root:
            self._root = Path(tempfile.mkdtemp(prefix="repro-service-"))
        else:
            self._root = Path(config.checkpoint_root)
            self._root.mkdir(parents=True, exist_ok=True)
        self.closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobStatus:
        """Admit one job; idempotent on resubmission.

        The job id is deterministic over the work-defining fields, so:

        * resubmitting a spec that is still pending/running returns the
          existing job (a higher-priority resubmission bumps it in place);
        * resubmitting a DONE spec returns the cached result's status;
        * resubmitting after a failure, a cancellation, or a service
          restart creates a fresh record on the *same* id — and because
          the id names the checkpoint directory, the fresh run resumes
          from the old run's newest snapshot.
        """
        self._check_open()
        job_id = spec.job_id
        existing = self.jobs.get(job_id)
        if existing is not None and not existing.state.terminal:
            if spec.priority > existing.priority:
                was_queued = self.queue.remove(existing)
                existing.spec = spec
                if was_queued:
                    self.queue.submit(existing)
            return existing.snapshot()
        if existing is not None and existing.state is JobState.DONE:
            return existing.snapshot()
        job = Job(spec, seq=self._next_seq())
        job.submitted_at = time.perf_counter()
        job.checkpoint_every = self.config.checkpoint_every
        self.queue.submit(job)  # may raise AdmissionError; nothing recorded
        self.jobs[job_id] = job
        self._refresh_gauges()
        return job.snapshot()

    def status(self, job_id: str) -> JobStatus:
        return self._get(job_id).snapshot()

    def result(self, job_id: str) -> Any:
        """The solver result of a DONE job; raises otherwise."""
        job = self._get(job_id)
        if job.state is not JobState.DONE:
            raise RuntimeError(
                f"job {job_id} is {job.state.value}, result available "
                f"only once done"
            )
        return job.result

    def cancel(self, job_id: str) -> JobStatus:
        """Stop a job and free its capacity immediately.

        A pending job leaves the queue; a running one has its generator
        closed (running the solver's cleanup path — persisted partitions
        unpersisted) and its lease released, so the slot and the pool are
        free for the next quantum.  Checkpoints are kept: cancellation is
        a pause from the data's point of view, and resubmitting the spec
        resumes from the newest snapshot.
        """
        job = self._get(job_id)
        if job.state.terminal:
            return job.snapshot()
        if job.state is JobState.PENDING:
            self.queue.remove(job)
        else:
            self._deactivate(job)
        job.state = JobState.CANCELLED
        job.finished_at = time.perf_counter()
        self.metrics.counter(
            "service_jobs_cancelled_total", tenant=job.tenant
        ).inc()
        self._refresh_gauges()
        return job.snapshot()

    def step(self) -> bool:
        """One scheduling quantum; returns whether work remains.

        A quantum is: fill free slots (activating pending jobs under fair
        share), preempt at most one checkpoint-resting victim if a
        strictly-higher-priority job is waiting with no free slot, then
        advance exactly one live job by one solver iteration.
        """
        self._check_open()
        self._activate_pending()
        self._maybe_preempt()
        job = self._pick_live()
        if job is not None:
            self._advance(job)
        self._refresh_gauges()
        return bool(self._live) or self.queue.total_depth() > 0

    def drain(self, max_steps: "int | None" = None) -> "list[JobStatus]":
        """Step until no work remains; returns final statuses by seq."""
        steps = 0
        while self.step():
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        return [
            job.snapshot()
            for job in sorted(self.jobs.values(), key=lambda j: j.seq)
        ]

    def dashboard(self) -> "dict[str, dict[str, Any]]":
        """Per-tenant operational summary (logical counters only)."""
        tenants = sorted({job.tenant for job in self.jobs.values()})
        board: dict[str, dict[str, Any]] = {}
        for tenant in tenants:
            mine = [j for j in self.jobs.values() if j.tenant == tenant]
            board[tenant] = {
                "pending": self.queue.depth(tenant),
                "running": sum(1 for j in mine if j.state is JobState.RUNNING),
                "done": sum(1 for j in mine if j.state is JobState.DONE),
                "failed": sum(1 for j in mine if j.state is JobState.FAILED),
                "cancelled": sum(
                    1 for j in mine if j.state is JobState.CANCELLED
                ),
                "iterations": sum(j.iterations for j in mine),
                "preemptions": sum(j.preemptions for j in mine),
                "vtime": self.scheduler.vtime(tenant),
                "shuffle_bytes": self.metrics.value(
                    "tenant_shuffle_bytes_total", tenant=tenant
                ),
            }
        return board

    def close(self) -> None:
        """Release every live job, the shared pool, and any owned root.

        Live jobs are *deactivated*, not cancelled: their state returns to
        PENDING and their checkpoints survive, which is what makes
        kill-and-resubmit resume work.
        """
        if self.closed:
            return
        self.closed = True
        for job in list(self._live):
            self._deactivate(job)
            job.state = JobState.PENDING
        self.factory.close()
        if self._owns_root:
            shutil.rmtree(self._root, ignore_errors=True)

    def __enter__(self) -> "FactorizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _activate_pending(self) -> None:
        while len(self._live) < self.config.max_live_jobs:
            candidates = self._eligible_heads()
            job = self.scheduler.pick(candidates)
            if job is None:
                return
            self.queue.pop(job.tenant)
            self._activate(job)

    def _eligible_heads(self) -> "dict[str, Job]":
        """Head-of-line job per tenant still under its running quota."""
        running: dict[str, int] = {}
        for job in self._live:
            running[job.tenant] = running.get(job.tenant, 0) + 1
        return {
            tenant: head
            for tenant, head in self.queue.heads().items()
            if running.get(tenant, 0) < self.queue.quota_for(tenant).max_running
        }

    def _maybe_preempt(self) -> None:
        if len(self._live) < self.config.max_live_jobs:
            return
        candidates = self._eligible_heads()
        candidate = self.scheduler.pick(candidates)
        if candidate is None:
            return
        victim = self.scheduler.victim(self._live, candidate)
        if victim is None:
            return
        self._deactivate(victim)
        victim.state = JobState.PENDING
        victim.preemptions += 1
        self.metrics.counter(
            "service_jobs_preempted_total", tenant=victim.tenant
        ).inc()
        # Original seq keeps the victim's place in its tenant's line.
        self.queue.requeue(victim)
        self.queue.pop(candidate.tenant)
        self._activate(candidate)

    def _pick_live(self) -> "Job | None":
        by_tenant: dict[str, list[Job]] = {}
        for job in self._live:
            by_tenant.setdefault(job.tenant, []).append(job)
        candidates = {
            tenant: self.scheduler.preference(jobs)
            for tenant, jobs in by_tenant.items()
        }
        return self.scheduler.pick(candidates)

    def _advance(self, job: Job) -> None:
        try:
            event = next(job.generator)
        except StopIteration as stop:
            self._finish(job, stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - job failure must not kill peers
            self._fail(job, exc)
            return
        job.iterations += 1
        job.last_step = event.step
        job.last_error = event.error
        job.converged = event.converged
        self.scheduler.charge(job.tenant, 1.0)

    # ------------------------------------------------------------------
    # Job lifecycle internals
    # ------------------------------------------------------------------
    def _activate(self, job: Job) -> None:
        """Attach a generator (and, for dbtf, a runtime lease) to a job.

        Every activation builds its checkpoint config with ``resume=True``:
        on a fresh directory that is a no-op, and after a preemption, a
        cancellation, or a service restart it picks the run up from the
        newest intact snapshot — one code path covers all four cases.
        """
        spec = job.spec
        checkpoint = CheckpointConfig(
            directory=self._root / job.job_id,
            every=self.config.checkpoint_every,
            keep_last=self.config.keep_last,
            resume=True,
        )
        job.checkpoint_dir = str(checkpoint.directory)
        job.checkpoint_every = self.config.checkpoint_every
        try:
            if spec.method == "dbtf":
                cluster = self.config.cluster
                if cluster.memory_budget is not None:
                    # Each job spills under its own checkpoint root, so a
                    # finished (or failed) job's spill files are removed
                    # with _cleanup_spill and never outlive the job.
                    cluster = cluster.with_memory_budget(
                        cluster.memory_budget,
                        spill_dir=str(self._root / job.job_id / "spill"),
                    )
                job.lease = self.factory.lease(config=cluster)
                if spec.deltas:
                    # Epoch stream: one incremental session owns the whole
                    # delta sequence, checkpointing each epoch into its own
                    # subdirectory of the job's checkpoint dir (a delta
                    # changes the tensor, hence the snapshot fingerprint)
                    # and pruning stale epoch directories as it advances —
                    # so a preempted or killed epochs job resumes from the
                    # newest intact epoch instead of replaying the stream's
                    # solver work from scratch.
                    config = DbtfConfig(
                        rank=spec.rank,
                        max_iterations=spec.max_iterations,
                        n_initial_sets=spec.n_initial_sets,
                        seed=spec.seed,
                        cluster=cluster,
                    )
                    session = FactorizationSession(
                        spec.tensor,
                        config,
                        job.lease.runtime,
                        checkpoint_root=self._root / job.job_id,
                        checkpoint_every=self.config.checkpoint_every,
                        keep_last=self.config.keep_last,
                    )
                    job.generator = session.steps(spec.deltas)
                else:
                    config = DbtfConfig(
                        rank=spec.rank,
                        max_iterations=spec.max_iterations,
                        n_initial_sets=spec.n_initial_sets,
                        seed=spec.seed,
                        cluster=cluster,
                        checkpoint=checkpoint,
                    )
                    job.generator = dbtf_steps(
                        spec.tensor, config, job.lease.runtime
                    )
            elif spec.method == "nway-cp":
                config = NwayCpConfig(
                    rank=spec.rank,
                    max_iterations=spec.max_iterations,
                    n_initial_sets=spec.n_initial_sets,
                    seed=spec.seed,
                    checkpoint=checkpoint,
                )
                job.generator = cp_nway_steps(spec.tensor, config)
            else:  # tucker
                config = BooleanTuckerConfig(
                    core_shape=spec.core_shape or (spec.rank,) * 3,
                    max_iterations=spec.max_iterations,
                    n_initial_sets=spec.n_initial_sets,
                    seed=spec.seed,
                    checkpoint=checkpoint,
                )
                job.generator = boolean_tucker_steps(spec.tensor, config)
        except Exception as exc:  # noqa: BLE001 - bad spec fails one job only
            self._fail(job, exc)
            return
        job.state = JobState.RUNNING
        self._live.append(job)

    def _deactivate(self, job: Job) -> None:
        """Tear down a job's live execution state, keeping its checkpoints.

        ``generator.close()`` raises ``GeneratorExit`` inside the solver,
        running its ``finally`` cleanup (dbtf unpersists its partitioned
        unfoldings there); closing the lease then evicts the runtime's
        job-scoped caches while the shared pool stays warm.
        """
        if job.generator is not None:
            self._settle(job)
            job.generator.close()
            job.generator = None
        if job.lease is not None:
            job.lease.close()
            job.lease = None
        if job in self._live:
            self._live.remove(job)

    def _settle(self, job: Job) -> None:
        """Account a leased runtime's shuffle bytes to the job's tenant."""
        if job.lease is not None:
            ledger = job.lease.runtime.ledger
            self.metrics.counter(
                "tenant_shuffle_bytes_total", tenant=job.tenant
            ).inc(float(ledger.total_bytes))

    def _cleanup_spill(self, job: Job) -> None:
        """Remove a terminal job's spill directory (its caches are dead)."""
        if self.config.cluster.memory_budget is not None:
            shutil.rmtree(self._root / job.job_id / "spill",
                          ignore_errors=True)

    def _finish(self, job: Job, result: Any) -> None:
        job.result = result
        job.converged = True if getattr(result, "converged", False) else job.converged
        if job.last_error is None:
            # A resumed run can finish without yielding a single new step
            # (the snapshot was already converged); report the result's
            # error rather than none at all.
            job.last_error = getattr(result, "error", None)
        self._deactivate(job)
        self._cleanup_spill(job)
        job.state = JobState.DONE
        job.finished_at = time.perf_counter()
        self.metrics.counter(
            "service_jobs_completed_total", tenant=job.tenant
        ).inc()
        self._observe_latency(job)

    def _fail(self, job: Job, exc: Exception) -> None:
        job.message = f"{type(exc).__name__}: {exc}"
        self._deactivate(job)
        self._cleanup_spill(job)
        job.state = JobState.FAILED
        job.finished_at = time.perf_counter()
        self.metrics.counter(
            "service_jobs_failed_total", tenant=job.tenant
        ).inc()
        self._observe_latency(job)

    def _observe_latency(self, job: Job) -> None:
        if job.submitted_at is None or job.finished_at is None:
            return
        self.metrics.histogram(
            "job_latency_seconds", buckets=_LATENCY_BUCKETS, tenant=job.tenant
        ).observe(job.finished_at - job.submitted_at)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        for tenant in sorted(
            set(self.queue.tenants()) | {job.tenant for job in self.jobs.values()}
        ):
            self.metrics.gauge("service_queue_depth", tenant=tenant).set(
                float(self.queue.depth(tenant))
            )
            self.metrics.gauge("service_running_jobs", tenant=tenant).set(
                float(sum(1 for job in self._live if job.tenant == tenant))
            )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("FactorizationService is closed")

    def __repr__(self) -> str:
        return (
            f"FactorizationService(jobs={len(self.jobs)}, "
            f"live={len(self._live)}, pending={self.queue.total_depth()}, "
            f"closed={self.closed})"
        )
