"""Cluster model for the simulated distributed engine.

The paper runs DBTF on Spark over a driver plus 16 workers, each with 8
usable cores (Sec. IV-A.2).  Offline we cannot run Spark, so the engine
executes partition tasks sequentially *while measuring them*, and this module
holds the cost-model parameters used to replay those measurements under any
cluster size (see :mod:`repro.distengine.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..resilience import SpeculationConfig
from .backends import BACKEND_NAMES

__all__ = ["ClusterConfig", "DEFAULT_CLUSTER"]


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the simulated cluster.

    Attributes
    ----------
    n_machines:
        Worker (executor) count.  The paper's cluster has 16.
    cores_per_machine:
        Concurrent tasks per worker.  The paper uses 8 cores per executor.
    network_bytes_per_sec:
        Effective point-to-point bandwidth used to convert recorded shuffle
        and broadcast bytes into time.
    task_launch_overhead_sec:
        Fixed scheduling/serialization cost per task wave, modelling Spark's
        task-dispatch latency.  This is what makes tiny tensors *slower*
        distributed than single-machine, as the paper observes for the 2^6
        tensor in Fig. 1(a).
    driver_latency_sec:
        Fixed driver-side cost per stage — job scheduling, collecting the
        per-column errors, updating the column — which no amount of workers
        parallelizes.  This serial fraction is why the paper's Fig. 7
        speed-up is sublinear (2.2x from 4 to 16 machines).
    backend:
        How partition tasks *actually execute on the host*: ``"serial"``
        (inline in the driver, the default) or ``"process"`` (resident
        worker processes, like Spark executors).  The cost model above is
        backend-invariant — it consumes measured per-task durations, not
        wall-clock order — so this only changes how fast the host
        finishes, never the simulated measurements.
    n_workers:
        Worker-pool size for the process backend (``None`` uses
        the host's CPU count).  Unrelated to ``n_machines``, which is the
        *simulated* cluster size.
    tracing:
        Collect a structured span trace (``stage → task → kernel`` plus
        transfer events) on the runtime's
        :class:`~repro.observability.Tracer`.  The trace *structure* is
        backend-invariant; only wall-clock fields differ.  Off by default
        because per-task span collection is not free.
    speculation:
        Straggler thresholds for modelled speculative execution
        (:class:`~repro.resilience.SpeculationConfig`); the runtime folds
        speculative duplicates into the simulated makespan and reports
        them as counters/events.  ``None`` (the default) disables
        speculation entirely.
    memory_budget:
        Byte ceiling for driver-resident partition caches.  When set, the
        runtime routes plan caches through the out-of-core storage tier
        (:mod:`repro.storage`): least-recently-used caches spill to disk
        and page back on access, transparently and bit-identically, with
        the I/O metered as :attr:`~repro.distengine.shuffle.TransferKind.
        SPILL`.  ``None`` (the default) disables the tier entirely — no
        storage objects are constructed and the hot paths pay one ``None``
        check.
    spill_dir:
        Parent directory for the storage tier's spill files (a unique
        subdirectory is created inside it per runtime).  ``None`` uses the
        system temp dir.  Only meaningful with ``memory_budget`` set.
    """

    n_machines: int = 16
    cores_per_machine: int = 8
    network_bytes_per_sec: float = 1.0e9
    #: Effective local-disk bandwidth used to convert storage-tier spill
    #: bytes into time in the cost replay (zero spill bytes without a
    #: memory budget, so the default replay is unaffected).
    disk_bytes_per_sec: float = 2.0e9
    task_launch_overhead_sec: float = 0.004
    driver_latency_sec: float = 0.003
    backend: str = "serial"
    n_workers: int | None = None
    tracing: bool = False
    speculation: SpeculationConfig | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_machines <= 0:
            raise ValueError(f"n_machines must be positive, got {self.n_machines}")
        if self.cores_per_machine <= 0:
            raise ValueError(
                f"cores_per_machine must be positive, got {self.cores_per_machine}"
            )
        if self.network_bytes_per_sec <= 0:
            raise ValueError("network_bytes_per_sec must be positive")
        if self.disk_bytes_per_sec <= 0:
            raise ValueError("disk_bytes_per_sec must be positive")
        if self.task_launch_overhead_sec < 0:
            raise ValueError("task_launch_overhead_sec must be non-negative")
        if self.driver_latency_sec < 0:
            raise ValueError("driver_latency_sec must be non-negative")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, got {self.backend!r}"
            )
        if self.n_workers is not None and self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )

    @property
    def total_slots(self) -> int:
        """Number of tasks that can run concurrently across the cluster."""
        return self.n_machines * self.cores_per_machine

    def with_backend(
        self, backend: str, n_workers: int | None = None
    ) -> "ClusterConfig":
        """The same cluster executing its stages on a different backend."""
        return replace(self, backend=backend, n_workers=n_workers)

    def with_tracing(self, tracing: bool = True) -> "ClusterConfig":
        """The same cluster with span tracing switched on (or off)."""
        return replace(self, tracing=tracing)

    def with_memory_budget(
        self, memory_budget: int | None, spill_dir: str | None = None
    ) -> "ClusterConfig":
        """The same cluster with the out-of-core storage tier configured."""
        return replace(self, memory_budget=memory_budget, spill_dir=spill_dir)


DEFAULT_CLUSTER = ClusterConfig()
