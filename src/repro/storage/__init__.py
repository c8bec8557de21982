"""Out-of-core storage tier: memory budgets, spill, mmap, streaming ingest.

Every layer above this one assumes partition caches and packed unfoldings
fit in driver RAM.  This package removes that assumption:

* :class:`MemoryBudget` — tracked allocation accounting for everything the
  storage tier holds resident, with observability counters and a hard
  "tracked resident bytes never exceed the budget" invariant;
* :class:`PartitionSpillStore` — an LRU spill-to-disk store for cached
  partition lists; the plan executor consults it transparently, so tasks
  see bit-identical data whether a cache is resident or paged in from disk;
* :class:`MmapUnfoldingStore` — content-addressed, memory-mapped storage
  for :class:`~repro.tensor.PackedUnfolding` words, so an unfolding is
  built once, flushed, and paged on demand;
* :class:`StreamingTensorBuilder` — chunked ingestion that accumulates
  sorted-unique flat indices per batch instead of materializing the full
  coordinate list.

The tier is wired through :class:`~repro.distengine.ClusterConfig`
(``memory_budget=...``, ``spill_dir=...``); with ``memory_budget=None``
(the default) nothing here is constructed and the engine's hot paths pay a
single ``None`` check.
"""

from .budget import MemoryBudget, format_size, parse_memory_size
from .mmap_store import MmapUnfoldingStore
from .spill import PartitionSpillStore, SpilledPartitions, SpillFileError
from .stream import StreamingTensorBuilder, iter_coordinate_batches

__all__ = [
    "MemoryBudget",
    "parse_memory_size",
    "format_size",
    "MmapUnfoldingStore",
    "PartitionSpillStore",
    "SpilledPartitions",
    "SpillFileError",
    "StreamingTensorBuilder",
    "iter_coordinate_batches",
]
