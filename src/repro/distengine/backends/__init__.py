"""Pluggable stage executors for the simulated distributed engine.

The engine meters *measured per-task durations*, not wall-clock order, so
the cost model is identical under every backend here; only the host's real
elapsed time changes.  ``serial`` is the default (and the historical
behavior), ``thread`` overlaps GIL-releasing numpy kernels, ``process``
runs partitions on separate cores and keeps persisted partitions resident
in its workers.
"""

from .base import (
    BACKEND_NAMES,
    Backend,
    ResidentPartition,
    StageResult,
    TaskOutcome,
    execute_task,
)
from .pools import ProcessBackend, ThreadBackend
from .serial import SerialBackend

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "ResidentPartition",
    "StageResult",
    "TaskOutcome",
    "execute_task",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
]

_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(backend: "str | Backend", n_workers: int | None = None) -> Backend:
    """Resolve a backend name (or pass through an instance).

    ``n_workers`` bounds the worker pool for ``thread``/``process``
    (default: the host's CPU count) and is ignored by ``serial``.
    """
    if isinstance(backend, Backend):
        return backend
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
        )
    return _BACKENDS[backend](n_workers=n_workers)
