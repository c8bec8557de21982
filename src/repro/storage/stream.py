"""Chunked tensor ingestion without a full in-memory coordinate list.

Importers hand each batch of coordinate rows to a
:class:`StreamingTensorBuilder`, which immediately collapses it to sorted,
deduplicated row-major *flat* indices and merges those into a single
running int64 array — one number per distinct nonzero instead of ``ndim``
numbers per raw input row.  Duplicate-heavy inputs (logs, event streams)
therefore peak at roughly the size of the final tensor plus one batch,
never the size of the raw file.

The builder produces a :class:`~repro.tensor.SparseBoolTensor` (or a
packed unfolding directly, optionally flushed through a
:class:`~repro.storage.mmap_store.MmapUnfoldingStore` so the words go
straight to a memory-mapped file).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..tensor.sparse import (
    SparseBoolTensor,
    check_flat_shape,
    merge_sorted,
    sorted_unique,
)

__all__ = ["StreamingTensorBuilder", "iter_coordinate_batches"]

#: Default coordinate rows per batch for the file/iterable chunkers.
DEFAULT_BATCH_ROWS = 65536


class StreamingTensorBuilder:
    """Accumulates nonzero coordinates batch by batch.

    The running state is one sorted-unique int64 array of row-major flat
    indices, so memory is proportional to distinct nonzeros seen so far —
    not to the raw (possibly duplicate-laden) input.
    """

    def __init__(self, shape: "tuple[int, ...]"):
        self.shape = tuple(int(s) for s in shape)
        if not self.shape:
            raise ValueError("tensor must have at least one mode")
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"non-positive dimension in shape {self.shape}")
        check_flat_shape(self.shape)
        self._flat = np.zeros(0, dtype=np.int64)
        self.batches_ingested = 0
        self.rows_ingested = 0

    @property
    def nnz(self) -> int:
        """Distinct nonzeros accumulated so far."""
        return int(self._flat.shape[0])

    def add_batch(self, coords: "np.ndarray | list") -> "StreamingTensorBuilder":
        """Merge one batch of ``(n, ndim)`` coordinate rows; returns self."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            self.batches_ingested += 1
            return self
        if coords.ndim != 2 or coords.shape[1] != len(self.shape):
            raise ValueError(
                f"batch must have shape (n, {len(self.shape)}), "
                f"got {coords.shape}"
            )
        if (coords < 0).any():
            raise ValueError("negative coordinates in batch")
        limits = np.asarray(self.shape, dtype=np.int64)
        if (coords >= limits[None, :]).any():
            raise ValueError(
                f"coordinates out of bounds for shape {self.shape}"
            )
        flat = sorted_unique(np.ravel_multi_index(coords.T, self.shape))
        # Only the batch is sorted; it is then merged into the running array
        # by binary search, one linear pass over (state + batch).
        self._flat = merge_sorted(self._flat, flat)
        self.batches_ingested += 1
        self.rows_ingested += int(coords.shape[0])
        return self

    def build(self):
        """The accumulated :class:`~repro.tensor.SparseBoolTensor`."""
        return SparseBoolTensor.from_flat(self.shape, self._flat)

    def packed_unfolding(self, mode: int, store=None):
        """The mode-``mode`` :class:`~repro.tensor.PackedUnfolding`.

        With ``store`` (an :class:`~repro.storage.mmap_store.
        MmapUnfoldingStore`) the freshly built words are flushed to disk
        and the returned unfolding is memmap-backed, so the only transient
        full-size allocation is the build itself.
        """
        from ..tensor import PackedUnfolding, unfold

        packed = PackedUnfolding(unfold(self.build(), mode))
        if store is not None:
            packed = store.flush(packed)
        return packed

    def __repr__(self) -> str:
        return (
            f"StreamingTensorBuilder(shape={self.shape}, nnz={self.nnz}, "
            f"batches={self.batches_ingested})"
        )


def iter_coordinate_batches(
    rows: "Iterable[tuple[int, ...]]",
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> "Iterator[np.ndarray]":
    """Chunk an iterable of coordinate tuples into ``(n, ndim)`` arrays.

    The generic adapter between row-at-a-time sources (file parsers,
    generators) and :meth:`StreamingTensorBuilder.add_batch`: at most
    ``batch_rows`` raw rows are materialized at once.
    """
    if batch_rows <= 0:
        raise ValueError(f"batch_rows must be positive, got {batch_rows}")
    pending: list = []
    for row in rows:
        pending.append(row)
        if len(pending) >= batch_rows:
            yield np.asarray(pending, dtype=np.int64)
            pending = []
    if pending:
        yield np.asarray(pending, dtype=np.int64)
