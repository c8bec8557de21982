"""Dense bit-packed storage for mode-n unfoldings.

DBTF's inner loop XORs reconstructed rows against unfolded-tensor rows block
by block (paper Fig. 3).  :class:`PackedUnfolding` lays the unfolding out as
a ``(n_rows, block_count, n_words)`` uint64 array aligned to the pointwise
vector-matrix (PVM) block boundaries, so a block of a row is one contiguous
word slice and the error kernel is pure vectorized XOR + popcount.
"""

from __future__ import annotations

import numpy as np

from ..bitops import packing
from .matricize import Unfolding

__all__ = ["PackedUnfolding"]


class PackedUnfolding:
    """A mode-n unfolding packed along the within-block (inner) axis."""

    __slots__ = ("mode", "n_rows", "block_count", "block_width", "n_words", "words")

    def __init__(self, unfolding: Unfolding):
        self.mode = unfolding.mode
        self.n_rows = unfolding.n_rows
        self.block_count = unfolding.block_count
        self.block_width = unfolding.block_width
        self.n_words = packing.words_for_bits(unfolding.block_width)
        self.words = np.zeros(
            (self.n_rows, self.block_count, self.n_words), dtype=np.uint64
        )
        bits = packing.cell_bits(
            unfolding.rows, unfolding.block_ids, unfolding.offsets,
            self.block_count, self.n_words,
        )
        packing.scatter_bits(self.words, bits)

    @classmethod
    def from_words(
        cls,
        mode: int,
        n_rows: int,
        block_count: int,
        block_width: int,
        words: np.ndarray,
    ) -> "PackedUnfolding":
        """Wrap already-packed words (e.g. a read-only memmap) directly.

        The storage tier's load path: words written by
        :class:`~repro.storage.MmapUnfoldingStore` come back as a memmap,
        and this constructor attaches them without copying.  The array may
        be read-only — every consumer either reads slices or copies them
        into fresh partition arrays.
        """
        expected = (n_rows, block_count, packing.words_for_bits(block_width))
        if tuple(words.shape) != expected:
            raise ValueError(
                f"words shape {tuple(words.shape)} does not match "
                f"expected {expected}"
            )
        if words.dtype != np.uint64:
            raise ValueError(f"words must be uint64, got {words.dtype}")
        packed = cls.__new__(cls)
        packed.mode = mode
        packed.n_rows = n_rows
        packed.block_count = block_count
        packed.block_width = block_width
        packed.n_words = expected[2]
        packed.words = words
        return packed

    @property
    def n_cols(self) -> int:
        return self.block_count * self.block_width

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    def nnz(self) -> int:
        return packing.popcount(self.words)

    def to_dense(self) -> np.ndarray:
        """Unpack back to a dense 0/1 matrix of shape (n_rows, n_cols)."""
        bits = packing.unpack_bits(self.words, self.block_width)
        return bits.reshape(self.n_rows, self.n_cols)

    def __repr__(self) -> str:
        return (
            f"PackedUnfolding(mode={self.mode}, rows={self.n_rows}, "
            f"blocks={self.block_count}x{self.block_width})"
        )
