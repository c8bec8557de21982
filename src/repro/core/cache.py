"""Row-summation caching (paper Sec. III-C, Fig. 4, Lemma 2).

Updating a factor matrix repeatedly needs Boolean sums of subsets of the
inner Khatri-Rao matrix's columns.  With rank R there are only ``2**R``
possible subsets, so DBTF precomputes them once per factor update and keys
them by the bitmask ``a_i: AND c_j:``.  Because the table grows as ``2**R``,
ranks above the threshold V are split into ``ceil(R / V)`` groups of columns,
each cached separately; a lookup then ORs one entry per group.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, or_accumulate_table, packing
from ..observability.trace import kernel_span, metrics_enabled, record_metric

__all__ = ["split_groups", "group_keys", "RowSummationCache"]


def split_groups(rank: int, group_size: int) -> list[tuple[int, int]]:
    """Divide ``rank`` columns evenly into ``ceil(rank / group_size)`` groups.

    Returns ``(start, size)`` pairs.  Mirrors Lemma 2: e.g. rank 18 with
    V = 10 gives two groups of 9.
    """
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if group_size <= 0:
        raise ValueError(f"group_size must be positive, got {group_size}")
    n_groups = -(-rank // group_size)  # ceil
    base, extra = divmod(rank, n_groups)
    groups = []
    start = 0
    for index in range(n_groups):
        size = base + (1 if index < extra else 0)
        groups.append((start, size))
        start += size
    return groups


def group_keys(
    groups: "list[tuple[int, int]]", anded_words: np.ndarray
) -> list[np.ndarray]:
    """Per-group integer cache keys from packed AND-ed row masks.

    ``anded_words`` packs R-bit masks (``a_i: AND c_j:``) along its last
    axis; the key for group ``(start, size)`` is that mask's bits
    ``[start, start+size)`` as one integer.
    """
    keys = []
    for start, size in groups:
        word_index, offset = divmod(start, packing.WORD_BITS)
        if offset + size <= packing.WORD_BITS:
            # Fast path: the group lives inside one word.
            word = anded_words[..., word_index] >> np.uint64(offset)
            mask = np.uint64((1 << size) - 1)
            keys.append((word & mask).astype(np.int64))
        else:
            sliced = packing.slice_bits(anded_words, start, start + size)
            keys.append(sliced[..., 0].astype(np.int64))
    return keys


class RowSummationCache:
    """All Boolean row summations of one inner factor matrix.

    Parameters
    ----------
    inner:
        The matrix ``M_s`` (e.g. **B** when updating **A**), of shape
        ``width x rank``.  Cached entries are ORs of its *columns*, each a
        packed ``width``-bit vector.
    group_size:
        The threshold V.  Each cache table covers at most ``2**group_size``
        subsets.
    """

    def __init__(self, inner: BitMatrix, group_size: int):
        self.rank = inner.n_cols
        self.width = inner.n_rows
        self.group_size = group_size
        self.groups = split_groups(self.rank, group_size)
        with kernel_span("cache.build", rank=self.rank,
                         n_groups=len(self.groups)):
            # Row r of inner^T is column r of inner, packed over `width` bits.
            columns_packed = inner.transpose().words
            self.full_tables = [
                or_accumulate_table(columns_packed[start : start + size], size)
                for start, size in self.groups
            ]
        #: Row r is the inner factor's column r packed over ``width`` bits —
        #: component r's coverage inside a PVM block.
        self.columns_packed = columns_packed
        record_metric("cache_tables_built_total", len(self.full_tables))
        record_metric("cache_entries_total", self.n_entries)

    @property
    def n_tables(self) -> int:
        return len(self.full_tables)

    @property
    def n_entries(self) -> int:
        """Total cached row summations across all tables."""
        return sum(table.shape[0] for table in self.full_tables)

    def group_keys(self, anded_words: np.ndarray) -> list[np.ndarray]:
        """Per-group integer cache keys (:func:`group_keys`)."""
        return group_keys(self.groups, anded_words)

    def fetch(self, tables: list[np.ndarray], keys: list[np.ndarray]) -> np.ndarray:
        """OR together one entry per group table — the cached row summation."""
        if len(tables) != len(keys):
            raise ValueError(
                f"got {len(tables)} tables but {len(keys)} key arrays"
            )
        # Guarded: with observability off the counter must cost one
        # attribute read.
        if metrics_enabled():
            record_metric("cache_fetches_total")
        summation = tables[0][keys[0]]
        for table, key in zip(tables[1:], keys[1:]):
            summation = summation | table[key]
        return summation
