"""LRU spill-to-disk store for cached partition lists.

The plan executor caches partitions on :class:`~repro.distengine.plan.
PlanNode` objects (``node.cached``) — source data and every ``persist()``
tap.  With a :class:`~repro.storage.budget.MemoryBudget` configured, those
caches go through this store instead of living unconditionally in driver
RAM:

* ``admit(node)`` charges the cache's measured bytes to the budget,
  spilling least-recently-used entries to disk first so tracked resident
  bytes never exceed the limit;
* ``fetch(node)`` returns the partitions, transparently loading a spilled
  entry back (and re-admitting it, possibly spilling something else).

A spilled node's ``cached`` slot holds a :class:`SpilledPartitions` marker
rather than ``None`` — crucial, because the plan optimizer stops lineage
chains at ``cached is not None``; a marker therefore still terminates the
chain and the only extra cost of a spilled cache is the load I/O, not a
recomputation.  The marker answers ``len()`` so partition-count bookkeeping
(``n_partitions``, eviction counters, ``explain()``) works unchanged.

Determinism: admit/fetch calls happen on the driver in plan-execution
order, which is identical across the serial and process backends,
so the spill/load sequence — and with it the SPILL bytes charged to the
cost model — is backend-invariant.  Loads are pickle round-trips of the
exact partition lists, so task inputs are bit-identical either way.
A source node's arrays that view a memory-mapped file under the store's
directory (the budgeted path's partition slabs) spill by reference to the
file rather than by value, and reload as read-only views of it.

This store is deliberately engine-agnostic: the runtime injects its byte
measurer and transfer recorder, so this package never imports distengine.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from .budget import MemoryBudget

__all__ = ["PartitionSpillStore", "SpilledPartitions", "SpillFileError"]

#: Span name shared by spill and load events (the ``op`` attr disambiguates).
STORAGE_SPAN = "storage"


class SpilledPartitions:
    """Marker left in ``node.cached`` while the partitions live on disk.

    Truthy and sized like the partition list it replaces, so cache-presence
    checks (``cached is not None``) and count bookkeeping
    (``len(node.cached)``) behave identically for resident and spilled
    entries.
    """

    __slots__ = ("path", "n_partitions", "nbytes")

    def __init__(self, path: str, n_partitions: int, nbytes: int):
        self.path = path
        self.n_partitions = n_partitions
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.n_partitions

    def __repr__(self) -> str:
        return (
            f"SpilledPartitions(n_partitions={self.n_partitions}, "
            f"nbytes={self.nbytes})"
        )


class SpillFileError(ValueError):
    """A spill file, or an unfolding file it references, cannot be read."""


class _SpillPickler(pickle.Pickler):
    """Pickles file-backed views by reference, other arrays by value.

    Given a ``directory``, an array viewing a memory-mapped file under it
    (the runtime's :class:`~repro.storage.MmapUnfoldingStore` files, or a
    view the store loaded from one) is written as a reference: the file's
    path relative to the directory, the byte offset, dtype, shape and
    strides.  The files are content-addressed and immutable while the
    store lives, so the reference reloads the same bits.  Relative paths
    keep the spill bytes independent of where the directory is.

    Numeric arrays pickled by value go against their canonical dtype
    object.  A pickle writes each distinct dtype *object* once.  Arrays
    that went through an earlier unpickle (a loaded spill file, a worker
    fetch) carry private dtype copies, so without this the same data would
    spill to a size that depends on its history, not on the data.
    """

    def __init__(self, stream, directory: "str | None"):
        super().__init__(stream, protocol=4)
        self._directory = None if directory is None else os.path.abspath(directory)

    def persistent_id(self, obj):
        if (
            self._directory is not None
            and type(obj) is np.ndarray
            and obj.base is not None
        ):
            return _file_reference(obj, self._directory)
        return None

    def reducer_override(self, obj):
        if type(obj) is np.ndarray and obj.dtype.isnative and (
            obj.dtype.kind in "biufc"
        ):
            reconstruct, args, state = obj.__reduce_ex__(4)
            canonical = np.dtype(obj.dtype.str)
            return reconstruct, args, state[:2] + (canonical,) + state[3:]
        return NotImplemented


def _file_reference(array: np.ndarray, directory: str) -> "tuple | None":
    """``array``'s location in a memory-mapped file under ``directory``."""
    root = array
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not isinstance(root, np.memmap) or root.filename is None:
        return None
    name = os.path.relpath(root.filename, directory)
    if name.startswith(os.pardir):
        return None
    offset = root.offset + (
        array.__array_interface__["data"][0]
        - root.__array_interface__["data"][0]
    )
    return (name, offset, array.dtype.str, array.shape, array.strides)


class _SpillUnpickler(pickle.Unpickler):
    """Resolves file references through the store's read-only mappings."""

    def __init__(self, stream, store: "PartitionSpillStore", path: str):
        super().__init__(stream)
        self._store = store
        self._path = path

    def persistent_load(self, reference):
        name, offset, dtype, shape, strides = reference
        mapping = self._store._mapping(name, self._path)
        try:
            return np.ndarray(
                shape, dtype=dtype, buffer=mapping, offset=offset,
                strides=strides,
            )
        except (TypeError, ValueError) as exc:
            # numpy checks the view against the mapping's bounds.
            raise SpillFileError(
                f"spill file {self._path} references bytes of {name} "
                f"({mapping.size} bytes) it does not have: {exc}"
            ) from exc


class _Entry:
    """One resident cache tracked by the store."""

    __slots__ = ("node", "nbytes", "path", "file_bytes")

    def __init__(self, node: Any, nbytes: int, path: str):
        self.node = node
        self.nbytes = nbytes
        self.path = path
        #: Size of the spill file once written; 0 until the first spill.
        self.file_bytes = 0


class PartitionSpillStore:
    """Budget-enforcing LRU store the runtime consults for plan caches.

    Parameters
    ----------
    budget:
        The :class:`MemoryBudget` charged for resident entries.
    spill_dir:
        Parent directory for spill files.  A unique subdirectory is always
        created inside it (or inside the system temp dir when ``None``),
        so ``close()`` can remove the whole tree without touching anything
        the user put next to it.
    measure:
        ``partitions -> int`` byte measurer; the runtime injects
        :func:`~repro.distengine.shuffle.estimate_bytes` so spill
        accounting uses the same size model as the network ledger.
    record_io:
        ``(stage, n_bytes) -> None`` callback charging spill/load file
        bytes to the cost model (``TransferKind.SPILL``).
    tracer:
        Optional tracer; spill/load record zero-duration ``storage`` spans.
    resolve:
        ``partitions -> partitions`` hook applied before a cache is written
        to disk; the runtime uses it to pull worker-resident partitions
        back, so spill files always hold the items themselves.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        spill_dir: "str | None" = None,
        measure: "Callable[[list], int] | None" = None,
        record_io: "Callable[[str, int], None] | None" = None,
        tracer: Any = None,
        resolve: "Callable[[list], list] | None" = None,
    ):
        self.budget = budget
        self._resolve = resolve
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=spill_dir)
        self._measure = measure if measure is not None else _default_measure
        self._record_io = record_io
        self._tracer = tracer
        #: node_id -> entry, LRU order (first = coldest).  Strong refs are
        #: fine: entries leave via ``discard`` (runtime eviction) or
        #: ``close`` (runtime shutdown), both guaranteed paths.
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: Read-only mappings of the files spilled references point into,
        #: keyed by their path relative to ``directory``.
        self._mappings: dict[str, np.memmap] = {}

    # ------------------------------------------------------------------
    # Admission and access
    # ------------------------------------------------------------------
    def admit(self, node: Any) -> None:
        """Start tracking ``node.cached`` (a fresh resident partition list).

        Spills colder entries first so the charge fits the budget.  An
        entry that alone exceeds the budget is spilled immediately — the
        caller still holds the transient list for the current stage, and
        later fetches stream it back from disk.
        """
        partitions = node.cached
        if isinstance(partitions, SpilledPartitions) or partitions is None:
            return
        node_id = node.node_id
        if node_id in self._entries:
            self._entries.move_to_end(node_id)
            return
        nbytes = int(self._measure(partitions))
        entry = _Entry(node, nbytes, self._path_for(node_id))
        if nbytes > self.budget.limit_bytes:
            self._spill(entry, partitions)
            return
        self._make_room(nbytes)
        self.budget.charge(nbytes)
        self._entries[node_id] = entry

    def fetch(self, node: Any) -> "list | None":
        """The partitions of ``node``, loading from disk if spilled.

        Returns ``None`` when the node has no cache at all (caller falls
        back to dispatching the stage).
        """
        cached = node.cached
        if cached is None:
            return None
        if not isinstance(cached, SpilledPartitions):
            entry = self._entries.get(node.node_id)
            if entry is not None:
                self._entries.move_to_end(node.node_id)
            return cached
        return self._load(node, cached)

    def refresh(self, node: Any, partitions: list) -> None:
        """``node``'s partitions were rewritten in place as ``partitions``.

        Its spill file, if any, holds the old bytes.  A resident entry
        drops the file, so its next spill writes the new ones; a node too
        big to hold resident is still spilled, so it is written again now.
        """
        if isinstance(node.cached, SpilledPartitions):
            marker = node.cached
            os.remove(marker.path)
            self._spill(_Entry(node, marker.nbytes, marker.path), partitions)
            return
        path = self._path_for(node.node_id)
        if os.path.exists(path):
            os.remove(path)

    def discard(self, node: Any) -> None:
        """Stop tracking ``node`` (runtime eviction); frees budget and file."""
        entry = self._entries.pop(node.node_id, None)
        if entry is not None:
            self.budget.release(entry.nbytes)
        path = self._path_for(node.node_id)
        if os.path.exists(path):
            os.remove(path)
        if isinstance(node.cached, SpilledPartitions):
            node.cached = None

    def close(self) -> None:
        """Release every tracked entry and delete the spill directory."""
        for entry in self._entries.values():
            self.budget.release(entry.nbytes)
        self._entries.clear()
        self._mappings.clear()
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _path_for(self, node_id: int) -> str:
        return os.path.join(self.directory, f"node-{node_id:06d}.pkl")

    def _mapping(self, name: str, spill_path: str) -> np.memmap:
        """The read-only byte mapping of a referenced file, opened once."""
        mapping = self._mappings.get(name)
        if mapping is None:
            path = os.path.join(self.directory, name)
            try:
                mapping = np.memmap(path, dtype=np.uint8, mode="r")
            except (OSError, ValueError) as exc:
                raise SpillFileError(
                    f"spill file {spill_path} references {path}, which "
                    f"cannot be mapped: {exc}"
                ) from exc
            self._mappings[name] = mapping
        return mapping

    def _make_room(self, nbytes: int) -> None:
        """Spill coldest entries until ``nbytes`` more fits the budget."""
        while not self.budget.fits(nbytes) and self._entries:
            _, victim = next(iter(self._entries.items()))
            self._spill(victim, victim.node.cached, tracked=True)

    def _spill(self, entry: _Entry, partitions: list, tracked: bool = False) -> None:
        """Write ``partitions`` to disk and leave a marker on the node.

        A node re-admitted after a load already has its spill file on disk;
        the rewrite (and its I/O charge) is skipped — the file holds the
        cache's bytes until :meth:`refresh` drops it for a cache rewritten
        in place.
        """
        wrote = not os.path.exists(entry.path)
        if wrote:
            if self._resolve is not None:
                partitions = self._resolve(partitions)
            staging = entry.path + ".tmp"
            with open(staging, "wb") as stream:
                # Only sources spill by reference: their partitions are
                # driver-side on every backend, while a derived node's come
                # back from process workers as copies, so referencing its
                # views would make the spill bytes depend on the backend.
                by_reference = self.directory if entry.node.is_source else None
                _SpillPickler(stream, by_reference).dump(partitions)
            os.replace(staging, entry.path)
        entry.file_bytes = os.path.getsize(entry.path)
        entry.node.cached = SpilledPartitions(
            entry.path, len(partitions), entry.nbytes
        )
        if tracked:
            self._entries.pop(entry.node.node_id, None)
            self.budget.release(entry.nbytes)
        self.budget.count_spill(entry.file_bytes if wrote else 0)
        if wrote and self._record_io is not None:
            self._record_io("storage.spill", entry.file_bytes)
        if self._tracer is not None:
            self._tracer.event(
                STORAGE_SPAN, _storage_kind(), op="spill",
                node_id=entry.node.node_id, bytes=entry.file_bytes,
            )

    def _load(self, node: Any, marker: SpilledPartitions) -> list:
        """Page a spilled entry back in, re-admitting it under the budget."""
        with open(marker.path, "rb") as stream:
            try:
                partitions = _SpillUnpickler(stream, self, marker.path).load()
            except (pickle.UnpicklingError, EOFError) as exc:
                raise SpillFileError(
                    f"spill file {marker.path} is truncated or corrupt: {exc}"
                ) from exc
        file_bytes = os.path.getsize(marker.path)
        self.budget.count_load()
        if self._record_io is not None:
            self._record_io("storage.load", file_bytes)
        if self._tracer is not None:
            self._tracer.event(
                STORAGE_SPAN, _storage_kind(), op="load",
                node_id=node.node_id, bytes=file_bytes,
            )
        if marker.nbytes > self.budget.limit_bytes:
            # Too big to ever hold resident: hand the transient list to the
            # caller and keep the marker, so the next fetch reloads it too.
            return partitions
        entry = _Entry(node, marker.nbytes, marker.path)
        entry.file_bytes = file_bytes
        self._make_room(marker.nbytes)
        self.budget.charge(marker.nbytes)
        node.cached = partitions
        self._entries[node.node_id] = entry
        return partitions

    def __repr__(self) -> str:
        return (
            f"PartitionSpillStore(entries={len(self._entries)}, "
            f"budget={self.budget!r})"
        )


def _default_measure(partitions: list) -> int:
    """Fallback measurer (tests); the runtime injects ``estimate_bytes``."""
    import numpy as np

    total = 0
    for partition in partitions:
        for item in partition:
            nbytes = getattr(item, "nbytes", None)
            if nbytes is not None:
                total += int(nbytes)
            elif isinstance(item, np.ndarray):
                total += int(item.nbytes)
            else:
                total += 64
    return total


def _storage_kind() -> str:
    from ..observability import SpanKind

    return SpanKind.STORAGE
