"""Shuffle accounting: how many bytes move across the simulated network.

The paper analyses DBTF's shuffled-data volume (Lemmas 6-7): the unfolded
tensors are shuffled once during partitioning, after which only factor-matrix
broadcasts and per-column error collections cross the network.  The ledger
records every transfer so the experiments can verify those bounds.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .broadcast import BroadcastHandle

__all__ = [
    "ShuffleLedger",
    "estimate_bytes",
    "estimate_bytes_cached",
    "stable_hash",
    "TransferKind",
    "HANDLE_WIRE_BYTES",
]


class TransferKind:
    """Categories of network transfer the ledger distinguishes.

    ``TASK`` is the serialized task payload the driver ships to workers at
    stage launch — the closure-capture cost Spark charges per task.  Before
    the broadcast-handle plane this traffic was invisible; metering it is
    what makes the handle-vs-closure comparison honest.

    ``SPILL`` is local disk I/O of the out-of-core storage tier (cache
    spill and load under a memory budget).  It is metered through the same
    ledger so spill traffic shows up next to network traffic in reports,
    but the cost replay charges it against disk bandwidth, not as bytes
    crossing the simulated network.
    """

    SHUFFLE = "shuffle"
    BROADCAST = "broadcast"
    COLLECT = "collect"
    TASK = "task"
    SPILL = "spill"

    ALL = (SHUFFLE, BROADCAST, COLLECT, TASK, SPILL)


#: What a :class:`BroadcastHandle` costs on the wire inside a task payload:
#: the content id, the name, and two small integers — not the value.
HANDLE_WIRE_BYTES = 32


def estimate_bytes(obj: object) -> int:
    """Approximate serialized size of a Python object, recursively.

    Numpy buffers dominate DBTF's traffic, so those are exact; containers
    add a small per-element overhead; broadcast handles cost their fixed
    wire size (never the value they reference); payload objects — slotted
    task callables and plain attribute-carrying instances — recurse over
    their attributes so closure-captured arrays are counted at full size.
    Everything else falls back to ``sys.getsizeof``.
    """
    return _estimate(obj, None)


def _estimate(obj: object, seen: "set[int] | None") -> int:
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, BroadcastHandle):
        return HANDLE_WIRE_BYTES
    if isinstance(obj, dict):
        return (
            sum(_estimate(k, seen) + _estimate(v, seen) for k, v in obj.items())
            + 8
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_estimate(item, seen) for item in obj) + 8
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    words = getattr(obj, "words", None)
    if isinstance(words, np.ndarray):  # BitMatrix and friends
        return int(words.nbytes)
    attrs = _payload_attrs(obj)
    if attrs is not None:
        if seen is None:
            seen = set()
        if id(obj) in seen:  # cycle guard for self-referential payloads
            return 0
        seen.add(id(obj))
        return sum(_estimate(value, seen) for value in attrs) + 8
    return sys.getsizeof(obj)


#: Identity-keyed memo for :func:`estimate_bytes_cached`.  Entries evict
#: themselves when the object is collected, so a recycled ``id()`` can never
#: serve a stale size; the guard ``ref() is obj`` covers the window where the
#: callback has not run yet.
_SIZE_CACHE: "dict[int, tuple[weakref.ref, int]]" = {}


def _evict_size(obj_id: int) -> None:
    _SIZE_CACHE.pop(obj_id, None)


def estimate_bytes_cached(obj: object) -> int:
    """Like :func:`estimate_bytes`, memoized per live object identity.

    Broadcast payloads are sized repeatedly — once per fingerprint, once
    per ledger charge — and the recursive walk over a factor-matrix payload
    is not free.  This caches
    the measured size against the object's identity via a weak reference,
    so re-sizing the same live object is a dict hit.

    Only weakref-able objects are memoized (plain instances, ndarrays);
    dicts, lists, and slotted payloads without ``__weakref__`` fall through
    to a fresh walk.  Callers must treat memoized objects as immutable —
    the broadcast plane already requires that of its payloads.
    """
    if obj is None:
        return 0
    obj_id = id(obj)
    hit = _SIZE_CACHE.get(obj_id)
    if hit is not None:
        ref, size = hit
        if ref() is obj:
            return size
    size = _estimate(obj, None)
    try:
        ref = weakref.ref(obj, lambda _ref, _id=obj_id: _evict_size(_id))
    except TypeError:
        return size
    _SIZE_CACHE[obj_id] = (ref, size)
    return size


def _payload_attrs(obj: object) -> "list | None":
    """Attribute values of a payload-like object, or ``None`` to fall back.

    Task payloads in this engine are slotted callables carrying their
    captured values as attributes; configs and tensors are plain instances
    with a ``__dict__``.  Objects with neither (functions, builtins) keep
    the ``getsizeof`` fallback.
    """
    values: list = []
    found_slots = False
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            found_slots = True
            values.append(getattr(obj, name, None))
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict:
        values.extend(instance_dict.values())
        return values
    return values if found_slots else None


def _hash_bytes(key: object) -> bytes:
    """Canonical byte encoding of a value, type-tagged per element.

    This fingerprints broadcast payloads (the content ids of their handles)
    and job specs, so numpy arrays hash their dtype, shape, and raw buffer,
    and lists hash element-wise like tuples (with a distinct tag).
    """
    if key is None:
        return b"n"
    if isinstance(key, (bool, np.bool_)):
        return b"b1" if key else b"b0"
    if isinstance(key, (int, np.integer)):
        return b"i" + str(int(key)).encode("ascii")
    if isinstance(key, (float, np.floating)):
        return b"f" + float(key).hex().encode("ascii")
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return b"y" + bytes(key)
    if isinstance(key, np.ndarray):
        header = f"{key.dtype.str}:{key.shape}:".encode("ascii")
        return b"a" + header + np.ascontiguousarray(key).tobytes()
    if isinstance(key, (tuple, list)):
        # Hash each element first so variable-length parts cannot collide
        # across positions.
        digests = b"".join(
            hashlib.blake2b(_hash_bytes(item), digest_size=8).digest()
            for item in key
        )
        return (b"t" if isinstance(key, tuple) else b"l") + digests
    words = getattr(key, "words", None)
    if isinstance(words, np.ndarray):  # BitMatrix and friends
        return b"w" + type(key).__name__.encode("utf-8") + b":" + _hash_bytes(words)
    # Content ids key the worker-side broadcast store, so the fallback must
    # reflect the value, not its (possibly content-free) repr.
    try:
        return b"p" + pickle.dumps(key, protocol=4)
    except Exception:
        return b"r" + repr(key).encode("utf-8")


def stable_hash(key: object) -> int:
    """A 64-bit hash that is identical across processes and interpreter runs.

    The builtin ``hash`` is salted per process (``PYTHONHASHSEED``), so a
    broadcast content id or service job id built from it would differ
    between driver and pool workers — and between two runs of the same
    experiment.  Both therefore use this blake2b-based hash, which depends
    only on the value.
    """
    digest = hashlib.blake2b(_hash_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class ShuffleLedger:
    """Accumulates bytes moved over the simulated network, by kind and stage."""

    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_stage: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, kind: str, stage: str, n_bytes: int) -> None:
        if kind not in TransferKind.ALL:
            raise ValueError(f"unknown transfer kind {kind!r}")
        if n_bytes < 0:
            raise ValueError(f"negative byte count {n_bytes}")
        self.by_kind[kind] += n_bytes
        self.by_stage[stage] += n_bytes

    @property
    def total_bytes(self) -> int:
        return sum(self.by_kind.values())

    def bytes_of_kind(self, kind: str) -> int:
        return self.by_kind.get(kind, 0)

    def reset(self) -> None:
        self.by_kind.clear()
        self.by_stage.clear()

    def summary(self) -> dict[str, int]:
        """A plain-dict snapshot for reports."""
        return {kind: self.by_kind.get(kind, 0) for kind in TransferKind.ALL}
