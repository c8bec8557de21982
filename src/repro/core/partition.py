"""Vertical partitioning of unfolded tensors (paper Sec. III-D, Fig. 5).

A partition is a contiguous range of unfolded-tensor columns; it is further
divided into *blocks* at the boundaries of the pointwise vector-matrix (PVM)
products ``(c_j: ∗ B)ᵀ`` so that every block can fetch its Boolean row
summations straight from a cache table.

A partition's packed bits live in one *slab*: a ``(n_rows, n_pvms,
n_words)`` array holding every PVM product the partition touches at full
PVM width.  A block is its PVM's words, masked to the block's columns when
it is partial (:class:`PartitionData`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..bitops import packing
from ..tensor import PackedUnfolding, Unfolding

__all__ = [
    "BlockType",
    "Block",
    "PartitionPlan",
    "PartitionData",
    "PartitionCoordinates",
    "make_partition_plans",
    "build_partition_data",
    "slab_index_dtype",
    "SlabLayout",
    "slab_layout",
    "split_unfolding_coordinates",
    "locate_cells",
    "pack_partition",
]


class BlockType(enum.Enum):
    """How a block sits inside its PVM product (Fig. 5 block kinds)."""

    FULL = "full"          # covers an entire PVM product (type 3)
    PREFIX = "prefix"      # starts at the PVM's first column (type 2)
    SUFFIX = "suffix"      # ends at the PVM's last column (type 4)
    INTERIOR = "interior"  # strictly inside one PVM product (type 1)


@dataclass(frozen=True)
class Block:
    """A contiguous column range inside one PVM product.

    ``start``/``stop`` are offsets within the PVM product, so the absolute
    unfolded columns are ``pvm_index * width + [start, stop)``.
    """

    pvm_index: int
    start: int
    stop: int
    width: int  # full width of the underlying PVM product

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop <= self.width:
            raise ValueError(
                f"invalid block range [{self.start}, {self.stop}) "
                f"within width {self.width}"
            )

    @property
    def n_cols(self) -> int:
        return self.stop - self.start

    @property
    def is_full(self) -> bool:
        return self.start == 0 and self.stop == self.width

    @property
    def block_type(self) -> BlockType:
        if self.is_full:
            return BlockType.FULL
        if self.start == 0:
            return BlockType.PREFIX
        if self.stop == self.width:
            return BlockType.SUFFIX
        return BlockType.INTERIOR


@dataclass(frozen=True)
class PartitionPlan:
    """Column range and block decomposition of one vertical partition."""

    index: int
    col_start: int
    col_stop: int
    blocks: tuple[Block, ...]

    @property
    def n_cols(self) -> int:
        return self.col_stop - self.col_start

    def block_types(self) -> set[BlockType]:
        return {block.block_type for block in self.blocks}

    @property
    def pvm_span(self) -> slice:
        """The PVM products this partition touches: its slab's block axis."""
        if not self.blocks:
            return slice(0, 0)
        return slice(self.blocks[0].pvm_index, self.blocks[-1].pvm_index + 1)


@dataclass
class PartitionData:
    """A partition's slab of the bit-packed unfolded tensor.

    ``words[:, p]`` holds, for every matrix row, the packed bits of PVM
    product ``plan.blocks[0].pvm_index + p`` at full width — the data the
    error kernel compares with cached row summations.  Only the bits inside
    the partition's column range are ever read: they are zero outside it
    when packed from the partition's own nonzeros, and the neighbouring
    partitions' bits when the slab is a view of a shared unfolding.  Built
    once and reused for the whole decomposition (the paper caches
    partitioned unfoldings across iterations, Lemma 7).
    """

    plan: PartitionPlan
    words: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.words.shape[0]

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)


def make_partition_plans(
    block_count: int, block_width: int, n_partitions: int
) -> list[PartitionPlan]:
    """Split ``block_count * block_width`` columns into vertical partitions.

    Partition sizes differ by at most one column (paper Algorithm 3:
    ``floor(Q/N) <= H <= ceil(Q/N)``).  Each partition is then cut at PVM
    boundaries into blocks; empty partitions (more partitions than columns)
    get no blocks.
    """
    if block_count <= 0 or block_width <= 0:
        raise ValueError(
            f"block_count and block_width must be positive, "
            f"got {block_count} and {block_width}"
        )
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be positive, got {n_partitions}")
    total_cols = block_count * block_width
    base, extra = divmod(total_cols, n_partitions)
    plans = []
    cursor = 0
    for index in range(n_partitions):
        size = base + (1 if index < extra else 0)
        col_start, col_stop = cursor, cursor + size
        cursor = col_stop
        plans.append(
            PartitionPlan(
                index=index,
                col_start=col_start,
                col_stop=col_stop,
                blocks=tuple(_blocks_for_range(col_start, col_stop, block_width)),
            )
        )
    return plans


def _blocks_for_range(col_start: int, col_stop: int, width: int) -> list[Block]:
    """Cut an absolute column range at multiples of ``width``."""
    blocks = []
    cursor = col_start
    while cursor < col_stop:
        pvm_index = cursor // width
        pvm_end = (pvm_index + 1) * width
        stop = min(col_stop, pvm_end)
        blocks.append(
            Block(
                pvm_index=pvm_index,
                start=cursor - pvm_index * width,
                stop=stop - pvm_index * width,
                width=width,
            )
        )
        cursor = stop
    return blocks


#: Bytes Lemma 6's ledger charges per shuffled nonzero: one int64 each for
#: the matrix row, the PVM block id and the within-block offset.  The model
#: prices the cell, not its wire encoding (one slab-bit index per nonzero).
_COORDINATE_BYTES = 24


@dataclass(frozen=True)
class PartitionCoordinates:
    """One partition's share of the sparse unfolding — what Spark shuffles.

    The paper's Algorithm 3 shuffles the unfolded tensor's nonzeros so each
    machine holds a column range (O(|X|) bytes, Lemma 6); the machine then
    organizes its share into packed blocks locally (:func:`pack_partition`).

    ``bits`` holds one slab-local bit index per nonzero,
    ``((row * n_pvms + block - first_pvm) * n_words) * 64 + offset`` (see
    :func:`~repro.bitops.packing.cell_bits`), as uint32 when every slab's
    bit count fits (:func:`slab_index_dtype`), else int64.
    """

    plan: PartitionPlan
    n_rows: int
    bits: np.ndarray

    @property
    def nnz(self) -> int:
        return self.bits.shape[0]

    @property
    def nbytes(self) -> int:
        """Lemma 6's shuffle charge: a (row, block, offset) int64 triple
        per nonzero, whatever :attr:`bits` occupies in memory."""
        return _COORDINATE_BYTES * self.nnz


def slab_index_dtype(n_rows: int, plans: list[PartitionPlan]) -> np.dtype:
    """uint32 when the largest slab has fewer than 2**32 bits, else int64."""
    row_words = max(
        (
            (plan.pvm_span.stop - plan.pvm_span.start)
            * packing.words_for_bits(plan.blocks[0].width)
            for plan in plans
            if plan.blocks
        ),
        default=0,
    )
    n_bits = n_rows * row_words * packing.WORD_BITS
    return np.dtype(np.uint32 if n_bits < 2**32 else np.int64)


class SlabLayout(NamedTuple):
    """Where one mode's partitions keep their cells: what
    :func:`locate_cells` reads of the plans (:func:`slab_layout`)."""

    #: ``(n_partitions,)``: each slab's first PVM product.
    first: np.ndarray
    #: ``(n_partitions,)``: the PVM products each slab holds.
    n_pvms: np.ndarray
    #: Words per PVM product at full width.
    n_words: int
    #: The slab bit index dtype (:func:`slab_index_dtype`).
    dtype: np.dtype


@functools.lru_cache(maxsize=64)
def slab_layout(
    n_rows: int, block_count: int, block_width: int, n_partitions: int
) -> SlabLayout:
    """The :class:`SlabLayout` of :func:`make_partition_plans`' plans for
    an ``n_rows``-row unfolding.

    The plans follow from the three sizes alone, so the layout is built
    once per plan shape, when a mode is first partitioned, and every later
    lookup — each delta's patch — reuses it.  Its arrays are read-only.
    """
    plans = make_partition_plans(block_count, block_width, n_partitions)
    first, end = np.array(
        [(plan.pvm_span.start, plan.pvm_span.stop) for plan in plans]
    ).T
    n_pvms = end - first
    for array in (first, n_pvms):
        array.setflags(write=False)
    return SlabLayout(
        first, n_pvms, packing.words_for_bits(block_width),
        slab_index_dtype(n_rows, plans),
    )


def split_unfolding_coordinates(
    unfolding: Unfolding, plans: list[PartitionPlan]
) -> list[PartitionCoordinates]:
    """Assign each unfolded nonzero to its vertical partition, in O(nnz).

    ``plans`` come from :func:`make_partition_plans`, so a column's
    partition follows from Algorithm 3's sizes: the first ``Q mod N``
    partitions hold ``ceil(Q/N)`` columns and the rest ``floor(Q/N)``.
    Nonzeros are grouped by that small key with a stable radix sort; no
    sort over the columns remains.
    """
    part, bits = locate_cells(unfolding, len(plans))
    key = part.astype(np.min_scalar_type(len(plans) - 1))
    order = np.argsort(key, kind="stable")  # a radix sort on 8/16-bit keys
    bits = bits[order]
    counts = np.bincount(part, minlength=len(plans))
    return [
        PartitionCoordinates(plan, unfolding.n_rows, bits[stop - count : stop])
        for plan, stop, count in zip(plans, np.cumsum(counts), counts)
    ]


def locate_cells(
    unfolding: Unfolding, n_partitions: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(part, bits)``: each cell's partition among the ``n_partitions``
    of :func:`make_partition_plans` and its slab-local bit index there
    (:class:`PartitionCoordinates`), in O(nnz)."""
    layout = slab_layout(
        unfolding.n_rows, unfolding.block_count, unfolding.block_width,
        n_partitions,
    )
    base, extra = divmod(unfolding.n_cols, n_partitions)
    columns = unfolding.columns()
    # The wide partitions end at column extra * (base + 1).  Below it the
    # first quotient is the partition index and the second is no larger;
    # beyond it the reverse.  With base == 0 every column lies below it.
    part = np.maximum(columns // (base + 1), (columns - extra) // max(base, 1))
    bits = packing.cell_bits(
        unfolding.rows, unfolding.block_ids - layout.first[part],
        unfolding.offsets, layout.n_pvms[part], layout.n_words,
    )
    return part, bits.astype(layout.dtype)


def pack_partition(coordinates: PartitionCoordinates) -> PartitionData:
    """Pack a partition's nonzeros into its slab with one bit scatter.

    This is the executor-local step of Algorithm 3 ("further split p into a
    set of blocks"); it runs as a distributed (timed) task.
    """
    plan = coordinates.plan
    span = plan.pvm_span
    width = plan.blocks[0].width if plan.blocks else 0
    words = packing.packed_zeros(
        (coordinates.n_rows, span.stop - span.start), width
    )
    packing.scatter_bits(words, coordinates.bits)
    return PartitionData(plan=plan, words=words)


def build_partition_data(
    packed: PackedUnfolding, plans: list[PartitionPlan]
) -> list[PartitionData]:
    """Each partition's slab as a zero-copy view of a packed unfolding.

    When the unfolding is memmap-backed
    (:class:`~repro.storage.MmapUnfoldingStore`), the partitions reference
    file-backed pages instead of duplicating the whole unfolding in driver
    RAM.  ``np.asarray`` demotes memmap views to plain ndarray views so
    downstream pickling and kernels never see the memmap subclass.
    """
    return [
        PartitionData(plan=plan, words=np.asarray(packed.words[:, plan.pvm_span]))
        for plan in plans
    ]
