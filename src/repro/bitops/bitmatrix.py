"""A Boolean matrix with bit-packed rows.

:class:`BitMatrix` is the workhorse representation for factor matrices and
unfolded-tensor rows throughout the reproduction.  Rows are packed into
``uint64`` words (see :mod:`repro.bitops.packing`), so Boolean sums of rows
are word-wise ORs and Hamming distances are XOR + popcount.
"""

from __future__ import annotations

import numpy as np

from ..observability.trace import kernel_span, record_metric
from . import packing

__all__ = ["BitMatrix"]


class BitMatrix:
    """An ``n_rows`` x ``n_cols`` Boolean matrix packed row-wise into uint64.

    The packed buffer is exposed as ``.words`` (shape ``(n_rows, n_words)``)
    for vectorized kernels.  Padding bits beyond ``n_cols`` are always
    clear — the constructor rejects words that set them and all mutating
    helpers keep them cleared — which the equality/popcount operations and
    the batched matmul's table gather rely on.
    """

    __slots__ = ("n_rows", "n_cols", "words")

    def __init__(self, n_rows: int, n_cols: int, words: np.ndarray | None = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"negative shape ({n_rows}, {n_cols})")
        self.n_rows = n_rows
        self.n_cols = n_cols
        n_words = packing.words_for_bits(n_cols)
        if words is None:
            words = np.zeros((n_rows, n_words), dtype=np.uint64)
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.shape != (n_rows, n_words):
                raise ValueError(
                    f"words shape {words.shape} does not match "
                    f"({n_rows}, {n_words}) for a {n_rows}x{n_cols} matrix"
                )
            tail = n_cols % packing.WORD_BITS
            if tail and np.any(words[:, -1] >> np.uint64(tail)):
                raise ValueError(
                    f"words set padding bits beyond column {n_cols} "
                    f"of a {n_rows}x{n_cols} matrix"
                )
        self.words = words

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """Build from a 2-D 0/1 array."""
        dense = np.atleast_2d(np.asarray(dense))
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={dense.ndim}")
        n_rows, n_cols = dense.shape
        return cls(n_rows, n_cols, packing.pack_bits(dense))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls(n_rows, n_cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    @classmethod
    def random(
        cls, n_rows: int, n_cols: int, density: float, rng: np.random.Generator
    ) -> "BitMatrix":
        """A random Boolean matrix with i.i.d. Bernoulli(density) entries."""
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        dense = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
        return cls.from_dense(dense)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.n_rows, self.n_cols, self.words.copy())

    # ------------------------------------------------------------------
    # Element / row access
    # ------------------------------------------------------------------
    def get(self, row: int, col: int) -> int:
        self._check_index(row, col)
        return packing.get_bit(self.words, row, col)

    def set(self, row: int, col: int, value: int) -> None:
        self._check_index(row, col)
        packing.set_bit(self.words, row, col, value)

    def _check_index(self, row: int, col: int) -> None:
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(
                f"index ({row}, {col}) out of bounds for "
                f"{self.n_rows}x{self.n_cols} matrix"
            )

    def row_mask(self, row: int) -> int:
        """The row as an integer bitmask (bit c set iff entry (row, c) is 1).

        Only sensible for narrow matrices such as factor matrices, where the
        mask is used as a cache key.
        """
        mask = 0
        for word_index in range(self.words.shape[1] - 1, -1, -1):
            mask = (mask << packing.WORD_BITS) | int(self.words[row, word_index])
        return mask

    def column(self, col: int) -> np.ndarray:
        """One column as a dense 0/1 vector."""
        word, offset = divmod(col, packing.WORD_BITS)
        return ((self.words[:, word] >> np.uint64(offset)) & np.uint64(1)).astype(np.uint8)

    def set_column(self, col: int, values: np.ndarray) -> None:
        """Overwrite one column from a dense 0/1 vector."""
        values = np.asarray(values)
        if values.shape != (self.n_rows,):
            raise ValueError(f"column values shape {values.shape} != ({self.n_rows},)")
        word, offset = divmod(col, packing.WORD_BITS)
        bit = np.uint64(1 << offset)
        column_words = self.words[:, word]
        column_words &= ~bit
        column_words |= np.where(values.astype(bool), bit, np.uint64(0))
        self.words[:, word] = column_words

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        return packing.unpack_bits(self.words, self.n_cols)

    def transpose(self) -> "BitMatrix":
        with kernel_span("bitmatrix.transpose", rows=self.n_rows,
                         cols=self.n_cols):
            return BitMatrix.from_dense(self.to_dense().T)

    def boolean_or(self, other: "BitMatrix") -> "BitMatrix":
        """Element-wise Boolean sum (Eq. 5 of the paper)."""
        self._check_same_shape(other)
        record_metric("bitmatrix_ops_total", op="or")
        return BitMatrix(self.n_rows, self.n_cols, self.words | other.words)

    def boolean_and(self, other: "BitMatrix") -> "BitMatrix":
        self._check_same_shape(other)
        record_metric("bitmatrix_ops_total", op="and")
        return BitMatrix(self.n_rows, self.n_cols, self.words & other.words)

    def xor(self, other: "BitMatrix") -> "BitMatrix":
        self._check_same_shape(other)
        record_metric("bitmatrix_ops_total", op="xor")
        return BitMatrix(self.n_rows, self.n_cols, self.words ^ other.words)

    def hamming_distance(self, other: "BitMatrix") -> int:
        """Number of differing entries."""
        self._check_same_shape(other)
        record_metric("bitmatrix_ops_total", op="hamming")
        return packing.popcount(self.words ^ other.words)

    def _check_same_shape(self, other: "BitMatrix") -> None:
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )

    def count_nonzeros(self) -> int:
        return packing.popcount(self.words)

    def density(self) -> float:
        cells = self.n_rows * self.n_cols
        return self.count_nonzeros() / cells if cells else 0.0

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.words, other.words))

    def __hash__(self):  # mutable container
        raise TypeError("BitMatrix is mutable and unhashable")

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols}, nnz={self.count_nonzeros()})"
