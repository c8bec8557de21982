"""Boolean linear-algebra operations on :class:`BitMatrix` operands.

These implement the operators of Section II of the paper: the Boolean matrix
product (Eq. 6), the Khatri-Rao product (Eq. 3) under Boolean semantics, and
the pointwise vector-matrix product (Eq. 4).

Every public kernel here runs one vectorized implementation.  The loop-form
references (``_*_rowloop``) stay private; ``tests/test_bitops_differential.py``
pins each public kernel bit-identical to its reference.  The implementation
that ran is the ``impl=`` attribute of each ``kernel_span`` and a label of
the ``kernel_dispatch_total`` metric.
"""

from __future__ import annotations

import sys

import numpy as np

from ..observability.trace import kernel_span, record_metric
from . import packing
from .bitmatrix import BitMatrix

__all__ = [
    "boolean_matmul",
    "khatri_rao",
    "pointwise_vector_matrix",
    "xor_popcount",
    "or_accumulate_table",
]


def _record_dispatch(kernel_name: str, impl_name: str) -> None:
    """Count one kernel call (no-op outside traced tasks)."""
    record_metric("kernel_dispatch_total", kernel=kernel_name, impl=impl_name)


# ----------------------------------------------------------------------
# boolean_matmul
# ----------------------------------------------------------------------
def boolean_matmul(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Boolean matrix product ``left ∘ right`` (Eq. 6).

    ``(left ∘ right)[i, j] = OR_k left[i, k] AND right[k, j]``.  Output row
    *i* is the OR of the rows of ``right`` selected by the nonzeros of
    ``left``'s row *i* (Lemma 1).  Runs the byte-group table gather on
    little-endian hosts and the per-row reference loop elsewhere.
    """
    if left.n_cols != right.n_rows:
        raise ValueError(
            f"inner dimensions differ: {left.shape} ∘ {right.shape}"
        )
    if sys.byteorder == "little":
        impl, kernel = "batched", _boolean_matmul_batched
    else:
        impl, kernel = "rowloop", _boolean_matmul_rowloop
    with kernel_span("boolean_matmul", m=left.n_rows, k=left.n_cols,
                     n=right.n_cols, impl=impl):
        _record_dispatch("boolean_matmul", impl)
        return kernel(left, right)


def _boolean_matmul_rowloop(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Reference per-row implementation (and the big-endian path)."""
    out_words = np.zeros((left.n_rows, right.words.shape[1]), dtype=np.uint64)
    left_dense = left.to_dense().astype(bool)
    for i in range(left.n_rows):
        selected = np.flatnonzero(left_dense[i])
        if selected.size:
            out_words[i] = np.bitwise_or.reduce(right.words[selected], axis=0)
    return BitMatrix(left.n_rows, right.n_cols, out_words)


def _boolean_matmul_batched(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Byte-group table gather: one 256-entry OR table per 8 inner columns.

    ``left``'s padding bits are zero (BitMatrix invariant), so a partial
    final group indexes only the low ``2**size`` table entries.  The byte
    view of uint64 words only lines up with bit positions on little-endian
    hosts, so :func:`boolean_matmul` runs this only there.
    """
    out = np.zeros((left.n_rows, right.words.shape[1]), dtype=np.uint64)
    left_bytes = np.ascontiguousarray(left.words).view(np.uint8)
    n_groups = (left.n_cols + 7) // 8
    for group in range(n_groups):
        size = min(8, left.n_cols - 8 * group)
        table = or_accumulate_table(
            right.words[8 * group : 8 * group + size], size
        )
        out |= table[left_bytes[:, group]]
    return BitMatrix(left.n_rows, right.n_cols, out)


# ----------------------------------------------------------------------
# khatri_rao
# ----------------------------------------------------------------------
def khatri_rao(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Column-wise Kronecker product ``left ⊙ right`` (Eq. 3).

    For Boolean inputs the result is Boolean.  Column *r* of the result is
    ``left[:, r] ⊗ right[:, r]``; the row indexed by ``(p, q)`` maps to flat
    row ``p * right.n_rows + q``, matching the paper's matricization layout
    where block *p* of the unfolding corresponds to row *p* of the first
    (outer) matrix.  Operates directly on packed words: one broadcast AND
    ``(P, 1, W) & (1, Q, W) -> (P*Q, W)``, whose padding stays zero because
    both operands' padding bits are zero.
    """
    if left.n_cols != right.n_cols:
        raise ValueError(
            f"Khatri-Rao needs equal column counts: {left.shape} vs {right.shape}"
        )
    with kernel_span("khatri_rao", p=left.n_rows, q=right.n_rows,
                     r=left.n_cols, impl="broadcast"):
        _record_dispatch("khatri_rao", "broadcast")
        words = (left.words[:, None, :] & right.words[None, :, :]).reshape(
            left.n_rows * right.n_rows, left.words.shape[1]
        )
        return BitMatrix(left.n_rows * right.n_rows, left.n_cols, words)


def _khatri_rao_rowloop(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Reference loop over ``(p, q)`` row pairs."""
    n_words = left.words.shape[1]
    out_words = np.zeros((left.n_rows * right.n_rows, n_words), dtype=np.uint64)
    for p in range(left.n_rows):
        for q in range(right.n_rows):
            out_words[p * right.n_rows + q] = left.words[p] & right.words[q]
    return BitMatrix(left.n_rows * right.n_rows, left.n_cols, out_words)


# ----------------------------------------------------------------------
# pointwise_vector_matrix
# ----------------------------------------------------------------------
def pointwise_vector_matrix(vector: np.ndarray, matrix: BitMatrix) -> BitMatrix:
    """Pointwise vector-matrix product ``v ∗ M`` (Eq. 4).

    Column *r* of the result is ``v[r] * M[:, r]`` — i.e. columns of ``M``
    are kept where the vector is 1 and zeroed where it is 0.  Computed as
    one packed AND of every row against the packed vector.
    """
    vector = np.asarray(vector).ravel()
    if vector.shape[0] != matrix.n_cols:
        raise ValueError(
            f"vector length {vector.shape[0]} != matrix columns {matrix.n_cols}"
        )
    with kernel_span("pointwise_vector_matrix", rows=matrix.n_rows,
                     cols=matrix.n_cols, impl="mask"):
        _record_dispatch("pointwise_vector_matrix", "mask")
        mask = packing.pack_bits(vector.astype(bool))
        return BitMatrix(matrix.n_rows, matrix.n_cols, matrix.words & mask)


def _pointwise_rowloop(vector: np.ndarray, matrix: BitMatrix) -> BitMatrix:
    """Reference per-row masked copy."""
    mask = packing.pack_bits(vector.astype(bool))
    out_words = np.zeros_like(matrix.words)
    for i in range(matrix.n_rows):
        out_words[i] = matrix.words[i] & mask
    return BitMatrix(matrix.n_rows, matrix.n_cols, out_words)


# ----------------------------------------------------------------------
# xor_popcount family
# ----------------------------------------------------------------------
def xor_popcount(a: np.ndarray, b: np.ndarray) -> int:
    """Total ``popcount(a ^ b)`` — Hamming distance of packed word arrays.

    No ``kernel_span`` is opened (this runs inside already-traced worker
    spans on the hot path); the call is still counted in
    ``kernel_dispatch_total``.
    """
    _record_dispatch("xor_popcount", "twopass")
    xored = np.bitwise_xor(np.asarray(a, dtype=np.uint64),
                           np.asarray(b, dtype=np.uint64))
    return int(np.bitwise_count(xored).sum(dtype=np.int64))


# ----------------------------------------------------------------------
# or_accumulate_table
# ----------------------------------------------------------------------
def or_accumulate_table(columns_packed: np.ndarray, n_columns: int) -> np.ndarray:
    """All ``2**n_columns`` Boolean sums of a set of packed rows.

    ``columns_packed`` has shape ``(n_columns, n_words)``; entry ``mask`` of
    the returned ``(2**n_columns, n_words)`` table is the OR of the rows whose
    bit is set in ``mask``.  Built by doubling — table entry ``m | 2^b`` is
    ``table[m] | columns_packed[b]`` — in ``n_columns`` vectorized steps.
    This is the cache-table construction of Section III-C.
    """
    if n_columns < 0:
        raise ValueError("n_columns must be non-negative")
    if columns_packed.shape[0] < n_columns:
        raise ValueError(
            f"need at least {n_columns} packed rows, got {columns_packed.shape[0]}"
        )
    with kernel_span("or_accumulate_table", n_columns=n_columns,
                     n_entries=1 << n_columns):
        n_words = columns_packed.shape[1]
        table = np.zeros((1 << n_columns, n_words), dtype=np.uint64)
        for bit in range(n_columns):
            half = 1 << bit
            table[half : 2 * half] = table[:half] | columns_packed[bit]
        return table
