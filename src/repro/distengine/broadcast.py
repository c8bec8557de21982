"""Broadcast variables for the simulated distributed engine.

Mirrors Spark broadcasts: the driver ships one read-only copy of a value to
every machine.  DBTF broadcasts the three factor matrices each iteration
(paper Sec. III-E); the engine charges ``size × n_machines`` bytes of
network traffic for each broadcast when replaying the cost model.

:class:`BroadcastHandle` is what :meth:`SimulatedRuntime.broadcast` returns:
a first-class, content-addressed reference that task payloads embed *instead
of* the value itself.  Pickling a handle drops the value — only the content
id, the owning runtime's scope and the metadata cross the task boundary —
so a handle inside a task payload costs a few dozen bytes per task while
the value is transferred once per worker, exactly the Spark semantics the
closure-capture pattern was approximating.

Resolution is deliberately span- and metric-free: the serial backend
resolves from driver memory while a process worker reads the value from
its resident store (the process backend ships each value once per worker,
on that worker's next stage message), and instrumenting that
difference would break the engine's backend-invariant trace structure.
"""

from __future__ import annotations

from typing import Any, Callable

from ..observability.trace import untraced

__all__ = ["Broadcast", "BroadcastHandle", "worker_state", "release_scope"]

#: Process-local resident store.  A process-backend worker keeps broadcast
#: values keyed ``(scope, content_id)`` and persisted partitions keyed
#: ``(scope, node_id, partition_index)`` here; every process (the driver
#: too, for the serial backend) keeps :func:`worker_state` slots keyed
#: ``(scope, name)``.  ``scope`` identifies the owning runtime, so one
#: runtime's ``close()`` drops exactly its entries.
_STORE: dict[tuple, Any] = {}

_MISSING = object()


def clear_store() -> None:
    """Drop every entry from this process's resident store."""
    _STORE.clear()


def worker_state(
    scope: int, name: str, key: tuple, build: Callable[[Any], Any]
):
    """This process's value of one derived-state slot of a runtime scope.

    The slot ``(scope, name)`` of the resident store holds ``(key,
    value)``; a call with another ``key`` builds a replacement, so a
    worker keeps one value per slot however many broadcasts pass through
    it, and :func:`release_scope` drops it with the scope's other entries.

    ``build(previous)`` runs once per key and process.  ``previous`` is the
    ``(key, value)`` pair it replaces, or ``None``, so a build may derive
    its value from the one before it.  How many builds happen is a
    property of the backend (one for a serial runtime, one per process
    worker), so like broadcast resolution the build runs untraced: it
    records no span and no metric.
    """
    slot = (scope, name)
    held = _STORE.get(slot)
    if held is None or held[0] != key:
        with untraced():
            held = (key, build(held))
        _STORE[slot] = held
    return held[1]


def release_scope(scope: int, node_id: "int | None" = None) -> int:
    """Drop this process's resident entries of one runtime ``scope``.

    Only the persisted partitions of ``node_id`` when given, else every
    entry of the scope.  Returns how many entries were dropped.
    """
    doomed = [
        key for key in _STORE
        if key[0] == scope and (node_id is None or key[1] == node_id)
    ]
    for key in doomed:
        del _STORE[key]
    return len(doomed)


class BroadcastHandle:
    """A content-addressed reference to a broadcast value.

    ``content_id`` is a stable content hash assigned by the runtime; two
    broadcasts of equal payloads share an id.  ``scope`` is the owning
    runtime's token, so ``key`` — the worker store key — never collides
    between runtimes leasing one worker pool.
    """

    __slots__ = ("content_id", "name", "n_bytes", "scope", "_value")

    def __init__(
        self,
        value: object,
        content_id: str,
        name: str,
        n_bytes: int,
        scope: "int | None" = None,
    ):
        self._value = value
        self.content_id = content_id
        self.name = name
        self.n_bytes = n_bytes
        self.scope = scope

    @property
    def key(self) -> tuple:
        """This value's key in a worker's resident store."""
        return (self.scope, self.content_id)

    @property
    def value(self) -> object:
        """The broadcast value, resolved from the nearest copy.

        Driver-side (and under the serial backend) this is the
        in-memory value.  In a process worker the handle arrives without
        its value and resolves through the process-local resident store.
        """
        if self._value is not _MISSING:
            return self._value
        cached = _STORE.get(self.key, _MISSING)
        if cached is _MISSING:
            raise RuntimeError(
                f"broadcast {self.name!r} ({self.content_id}) has no value "
                f"in this process"
            )
        self._value = cached
        return cached

    def __getstate__(self) -> tuple:
        # The value never rides inside a pickled handle — that is the whole
        # point.  Workers re-resolve through their resident store.
        return (self.content_id, self.name, self.n_bytes, self.scope)

    def __setstate__(self, state: tuple) -> None:
        self.content_id, self.name, self.n_bytes, self.scope = state
        self._value = _MISSING

    def __repr__(self) -> str:
        return (
            f"BroadcastHandle({self.name!r}, {self.n_bytes} bytes, "
            f"id={self.content_id})"
        )


#: Historical name; ``runtime.broadcast`` has always returned this type.
Broadcast = BroadcastHandle
