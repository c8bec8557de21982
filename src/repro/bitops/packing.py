"""Low-level bit-packing primitives.

All Boolean matrices in this package store their rows packed into ``uint64``
words, least-significant-bit first: bit ``c`` of a row lives in word
``c // 64`` at position ``c % 64``.  Packing is what makes a pure-Python
reproduction of DBTF practical: Boolean row summation becomes a word-wise
``|``, the reconstruction error becomes ``^`` followed by a population count,
and cache keys (Section III-C of the paper) become integer bitmasks.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_WORD_DTYPE = np.uint64

__all__ = [
    "WORD_BITS",
    "words_for_bits",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "popcount_rows",
    "slice_bits",
    "cell_bits",
    "scatter_bits",
    "mask_from_indices",
    "indices_from_mask",
    "packed_zeros",
    "set_bit",
    "get_bit",
    "bit_column",
    "set_bit_column",
]


def words_for_bits(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def packed_zeros(shape: tuple[int, ...], n_bits: int) -> np.ndarray:
    """An all-zero packed array whose trailing axis holds ``n_bits`` bits."""
    return np.zeros(shape + (words_for_bits(n_bits),), dtype=_WORD_DTYPE)


def pack_bits(dense: np.ndarray) -> np.ndarray:
    """Pack the trailing axis of a 0/1 array into uint64 words (LSB first).

    ``dense`` may have any leading shape; only the last axis is packed.
    """
    dense = np.asarray(dense)
    if dense.ndim == 0:
        raise ValueError("cannot pack a scalar")
    n_bits = dense.shape[-1]
    # numpy's packbits is big-endian per byte by default; request little so
    # that bit c sits at position c % 8 of byte c // 8.
    as_bytes = np.packbits(dense.astype(bool), axis=-1, bitorder="little")
    n_words = words_for_bits(n_bits)
    padded = np.zeros(dense.shape[:-1] + (n_words * 8,), dtype=np.uint8)
    padded[..., : as_bytes.shape[-1]] = as_bytes
    return padded.view(_WORD_DTYPE).reshape(dense.shape[:-1] + (n_words,))


def unpack_bits(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a uint8 0/1 array."""
    packed = np.ascontiguousarray(packed, dtype=_WORD_DTYPE)
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :n_bits]


def popcount(packed: np.ndarray) -> int:
    """Total number of set bits in a packed array."""
    return int(np.bitwise_count(packed).sum())


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Per-row popcount: sums set bits over the trailing (word) axis."""
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


def slice_bits(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Extract bit columns ``[start, stop)`` from a packed array.

    The result is re-packed so the extracted range starts at bit 0.  Used to
    derive the narrow per-block cache tables of Lemma 3 (block types 1/2/4)
    from a full-width pointwise vector-matrix product table.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"invalid bit range [{start}, {stop})")
    width = stop - start
    if width == 0:
        return np.zeros(packed.shape[:-1] + (0,), dtype=_WORD_DTYPE)
    first_word = start // WORD_BITS
    last_word = (stop - 1) // WORD_BITS
    window = np.ascontiguousarray(packed[..., first_word : last_word + 1])
    shift = start % WORD_BITS
    if shift:
        shifted = window >> _WORD_DTYPE(shift)
        carry = window[..., 1:] << _WORD_DTYPE(WORD_BITS - shift)
        shifted[..., :-1] |= carry
        window = shifted
    n_words = words_for_bits(width)
    window = window[..., :n_words].copy()
    tail = width % WORD_BITS
    if tail:
        window[..., -1] &= _WORD_DTYPE((1 << tail) - 1)
    return window


def cell_bits(rows, blocks, offsets, n_blocks, n_words: int) -> np.ndarray:
    """Flat bit index of cells ``(rows, blocks, offsets)`` in a C-contiguous
    ``(n_rows, n_blocks, n_words)`` packed array (``n_blocks`` may vary per
    cell): word ``bit // 64`` of the flat view, position ``bit % 64``."""
    return ((rows * n_blocks + blocks) * n_words) * WORD_BITS + offsets


def scatter_bits(words: np.ndarray, bits: np.ndarray, value: bool = True) -> None:
    """Set (or clear) the :func:`cell_bits` indices ``bits`` of ``words``.

    ``words`` is C-contiguous and updated in place with one unbuffered
    scatter over its flat view, so repeated bits are idempotent.  Any
    integer dtype works (uint32 for arrays of fewer than 2**32 bits).
    """
    if not words.flags.c_contiguous:
        raise ValueError("scatter_bits needs C-contiguous words")
    masks = _WORD_DTYPE(1) << (bits % WORD_BITS).astype(_WORD_DTYPE)
    flat = words.reshape(-1)
    if value:
        np.bitwise_or.at(flat, bits // WORD_BITS, masks)
    else:
        np.bitwise_and.at(flat, bits // WORD_BITS, ~masks)


def mask_from_indices(indices: np.ndarray | list[int]) -> int:
    """Build an integer bitmask with the given bit positions set.

    Vectorized: the positions are scattered into a byte array and packed,
    so the cost is one numpy pass instead of a Python loop per index.
    """
    arr = np.asarray(indices, dtype=np.int64).ravel()
    if arr.size == 0:
        return 0
    if arr.min() < 0:
        raise ValueError("bit positions must be non-negative")
    bits = np.zeros(int(arr.max()) + 1, dtype=np.uint8)
    bits[arr] = 1
    raw = np.packbits(bits, bitorder="little").tobytes()
    return int.from_bytes(raw, "little")


def indices_from_mask(mask: int) -> list[int]:
    """The set bit positions of an integer bitmask, ascending.

    Vectorized via the mask's little-endian byte representation, matching
    the loop form ``[p for p in count() if mask >> p & 1]``.
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    if mask == 0:
        return []
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return [int(position) for position in np.flatnonzero(bits)]


def set_bit(packed: np.ndarray, row: int, bit: int, value: int) -> None:
    """Set or clear one bit of one packed row in place."""
    word, offset = divmod(bit, WORD_BITS)
    if value:
        packed[row, word] |= _WORD_DTYPE(1 << offset)
    else:
        packed[row, word] &= _WORD_DTYPE(~(1 << offset) & (2**WORD_BITS - 1))


def get_bit(packed: np.ndarray, row: int, bit: int) -> int:
    """Read one bit of one packed row."""
    word, offset = divmod(bit, WORD_BITS)
    return int((packed[row, word] >> _WORD_DTYPE(offset)) & _WORD_DTYPE(1))


def bit_column(packed: np.ndarray, bit: int) -> np.ndarray:
    """Bit ``bit`` of every packed row, as a uint8 0/1 vector."""
    word, offset = divmod(bit, WORD_BITS)
    return (
        (packed[:, word] >> _WORD_DTYPE(offset)) & _WORD_DTYPE(1)
    ).astype(np.uint8)


def set_bit_column(packed: np.ndarray, bit: int, values: np.ndarray) -> None:
    """Write a 0/1 vector into bit ``bit`` of every packed row, in place."""
    word, offset = divmod(bit, WORD_BITS)
    select = _WORD_DTYPE(1 << offset)
    column = packed[:, word]
    np.bitwise_and(column, ~select, out=column)
    np.bitwise_or(
        column,
        values.astype(_WORD_DTYPE) << _WORD_DTYPE(offset),
        out=column,
    )
