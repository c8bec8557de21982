"""Mode-n matricization (unfolding) of three-way Boolean tensors.

The layout follows Eq. (1) of the paper (converted to 0-based indices):

=======  =========  ==============================  ===========  ============
mode     row index  column index                    outer matrix inner matrix
=======  =========  ==============================  ===========  ============
mode 1   ``i``      ``j + k * J``                   ``C``        ``B``
mode 2   ``j``      ``i + k * I``                   ``C``        ``A``
mode 3   ``k``      ``i + j * I``                   ``B``        ``A``
=======  =========  ==============================  ===========  ============

so that ``X_(1) ≈ A ∘ (C ⊙ B)ᵀ`` etc. (Eq. 12).  The "outer" matrix indexes
the pointwise vector-matrix (PVM) blocks of the Khatri-Rao product and the
"inner" matrix spans the columns within one block — the structure DBTF's
partitioning and caching are built on (paper Figs. 4-5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseBoolTensor

__all__ = ["Unfolding", "unfold", "fold", "MODE_FACTOR_ROLES"]

# For mode n (0-based), which factor is updated and which factors play the
# Khatri-Rao roles in  X_(n) ≈ target ∘ (outer ⊙ inner)ᵀ.  Factors are
# referred to by their mode index: 0 -> A, 1 -> B, 2 -> C.
MODE_FACTOR_ROLES: dict[int, tuple[int, int, int]] = {
    0: (0, 2, 1),  # X(1) ≈ A (C ⊙ B)^T
    1: (1, 2, 0),  # X(2) ≈ B (C ⊙ A)^T
    2: (2, 1, 0),  # X(3) ≈ C (B ⊙ A)^T
}


@dataclass(frozen=True)
class Unfolding:
    """A mode-n unfolding of a three-way tensor, kept in sparse COO form.

    Attributes
    ----------
    mode:
        The unfolded mode (0, 1, or 2).
    n_rows:
        Size of the unfolded mode (the matrix has this many rows).
    block_count:
        Number of PVM blocks = size of the "outer" Khatri-Rao mode.
    block_width:
        Columns per PVM block = size of the "inner" Khatri-Rao mode.
    rows, block_ids, offsets:
        Parallel arrays over nonzeros: matrix row, PVM block index, and
        column offset within the block.  They are views of the tensor's
        coordinate columns, not copies: do not write to them.  The absolute
        matrix column is ``block_ids * block_width + offsets``.
    """

    mode: int
    n_rows: int
    block_count: int
    block_width: int
    rows: np.ndarray
    block_ids: np.ndarray
    offsets: np.ndarray

    @property
    def n_cols(self) -> int:
        return self.block_count * self.block_width

    @property
    def nnz(self) -> int:
        return self.rows.shape[0]

    def columns(self) -> np.ndarray:
        """Absolute column index per nonzero."""
        return self.block_ids * self.block_width + self.offsets

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        if self.nnz:
            dense[self.rows, self.columns()] = 1
        return dense


def _mode_axes(mode: int) -> tuple[int, int, int]:
    """(row axis, block axis, offset axis) of the original tensor per mode."""
    if mode == 0:
        return 0, 2, 1  # row i, block k, offset j
    if mode == 1:
        return 1, 2, 0  # row j, block k, offset i
    if mode == 2:
        return 2, 1, 0  # row k, block j, offset i
    raise ValueError(f"mode must be 0, 1, or 2, got {mode}")


def unfold(tensor: SparseBoolTensor, mode: int) -> Unfolding:
    """Unfold a three-way Boolean tensor along ``mode`` (Eq. 1)."""
    if tensor.ndim != 3:
        raise ValueError(f"unfold expects a three-way tensor, got {tensor.ndim}-way")
    row_axis, block_axis, offset_axis = _mode_axes(mode)
    coords = tensor.coords
    return Unfolding(
        mode=mode,
        n_rows=tensor.shape[row_axis],
        block_count=tensor.shape[block_axis],
        block_width=tensor.shape[offset_axis],
        rows=coords[:, row_axis],
        block_ids=coords[:, block_axis],
        offsets=coords[:, offset_axis],
    )


def fold(unfolding: Unfolding) -> SparseBoolTensor:
    """Inverse of :func:`unfold`: reassemble the three-way tensor."""
    row_axis, block_axis, offset_axis = _mode_axes(unfolding.mode)
    shape = [0, 0, 0]
    shape[row_axis] = unfolding.n_rows
    shape[block_axis] = unfolding.block_count
    shape[offset_axis] = unfolding.block_width
    coords = np.zeros((unfolding.nnz, 3), dtype=np.int64)
    coords[:, row_axis] = unfolding.rows
    coords[:, block_axis] = unfolding.block_ids
    coords[:, offset_axis] = unfolding.offsets
    return SparseBoolTensor(tuple(shape), coords)
