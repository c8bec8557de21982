"""Pluggable stage executors for the simulated distributed engine.

The engine meters *measured per-task durations*, not wall-clock order, so
the cost model is identical under every backend here; only the host's real
elapsed time changes.  ``serial`` runs every task inline in the driver —
the default, and the exact single-core reference; ``process`` runs
partitions on separate worker processes, like Spark executors, and keeps
persisted partitions resident in its workers.
"""

from .base import (
    BACKEND_NAMES,
    Backend,
    ResidentPartition,
    StageResult,
    TaskOutcome,
    execute_task,
)
from .pools import ProcessBackend
from .serial import SerialBackend

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "ResidentPartition",
    "StageResult",
    "TaskOutcome",
    "execute_task",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
]

_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def make_backend(backend: "str | Backend", n_workers: int | None = None) -> Backend:
    """Resolve a backend name (or pass through an instance).

    ``n_workers`` bounds the worker pool for ``process``
    (default: the host's CPU count) and is ignored by ``serial``.
    """
    if isinstance(backend, Backend):
        return backend
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
        )
    return _BACKENDS[backend](n_workers=n_workers)
