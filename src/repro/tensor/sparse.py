"""Sparse Boolean tensors in coordinate (COO) form.

A Boolean tensor is a set of nonzero coordinates; all set-algebraic
operations (Boolean sum, difference, XOR) are set operations on coordinate
rows.  The class is N-way, although the paper — and therefore the rest of
this package — works with three-way tensors.

The canonical form is sorted row-major flat indices: ``coords`` rows are
ordered and deduplicated exactly as their ``np.ravel_multi_index`` values
are, so every set operation, ``__contains__`` and
:class:`~repro.tensor.delta.TensorDelta` work on one sorted int64 array.
A shape whose cell count does not fit in int64 therefore has no flat
indices and is rejected at construction.

Canonicalization is sort-based (``np.sort`` plus an adjacent-difference
mask, :func:`sorted_unique`), and sorted inputs are combined by binary
search (:func:`locate`, :func:`merge_sorted`) rather than re-sorted, so
advancing a tensor by a delta costs O(|Δ| log |X|) searches plus one
linear merge.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

__all__ = ["SparseBoolTensor"]

_MAX_CELLS = int(np.iinfo(np.int64).max)


def check_flat_shape(shape: tuple[int, ...]) -> None:
    """Reject a shape whose cells cannot all be numbered by int64 flat indices."""
    if math.prod(shape) > _MAX_CELLS:
        raise ValueError(
            f"shape {shape} has more cells than an int64 flat index can "
            f"address ({_MAX_CELLS})"
        )


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order, as a new array.

    A sort plus an adjacent-difference mask; NumPy's 1-D ``np.unique``
    takes a hash-based path that is far slower on large int64 inputs.
    """
    values = np.sort(values)
    if values.shape[0] < 2:
        return values
    keep = np.empty(values.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def locate(
    haystack: np.ndarray, needles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where ``needles`` would insert into sorted ``haystack``, and which are in it."""
    positions = np.searchsorted(haystack, needles)
    found = np.zeros(positions.shape[0], dtype=bool)
    inside = positions < haystack.shape[0]
    found[inside] = haystack[positions[inside]] == needles[inside]
    return positions, found


def merge_sorted(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted, deduplicated 1-D arrays."""
    positions, found = locate(left, right)
    return np.insert(left, positions[~found], right[~found])


def coords_from_flat(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``(n, ndim)`` int64 coordinate rows of row-major flat indices."""
    return np.stack(np.unravel_index(flat, shape), axis=1).astype(
        np.int64, copy=False
    )


def _canonical_coords(coords: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Validate, deduplicate, and sort coordinate rows into a new array."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.size == 0:
        return np.zeros((0, len(shape)), dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != len(shape):
        raise ValueError(
            f"coords must have shape (nnz, {len(shape)}), got {coords.shape}"
        )
    if (coords < 0).any():
        raise ValueError("negative coordinates")
    limits = np.asarray(shape, dtype=np.int64)
    if (coords >= limits[None, :]).any():
        raise ValueError(f"coordinates out of bounds for shape {shape}")
    flat = np.ravel_multi_index(coords.T, shape)
    if (flat[1:] > flat[:-1]).all():
        # Already canonical; copy so the tensor never aliases the caller.
        return np.array(coords, dtype=np.int64, order="C")
    return coords_from_flat(sorted_unique(flat), shape)


class SparseBoolTensor:
    """An N-way Boolean tensor stored as sorted, deduplicated coordinates."""

    __slots__ = ("shape", "coords")

    def __init__(self, shape: tuple[int, ...], coords: np.ndarray | None = None):
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimension in shape {shape}")
        if not shape:
            raise ValueError("tensor must have at least one mode")
        check_flat_shape(shape)
        self.shape = shape
        if coords is None:
            coords = np.zeros((0, len(shape)), dtype=np.int64)
        self.coords = _canonical_coords(coords, shape)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "SparseBoolTensor":
        return cls(shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseBoolTensor":
        dense = np.asarray(dense)
        coords = np.argwhere(dense != 0)
        return cls(dense.shape, coords)

    @classmethod
    def from_nonzeros(
        cls, shape: tuple[int, ...], nonzeros: Iterable[tuple[int, ...]]
    ) -> "SparseBoolTensor":
        coords = np.array(list(nonzeros), dtype=np.int64).reshape(-1, len(shape))
        return cls(shape, coords)

    def copy(self) -> "SparseBoolTensor":
        return SparseBoolTensor(self.shape, self.coords)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of nonzero entries, |X| in the paper's notation."""
        return self.coords.shape[0]

    @property
    def n_cells(self) -> int:
        return int(np.prod(np.asarray(self.shape, dtype=np.int64)))

    def density(self) -> float:
        return self.nnz / self.n_cells if self.n_cells else 0.0

    def frobenius_norm(self) -> float:
        """For a Boolean tensor the Frobenius norm is sqrt(|X|)."""
        return float(np.sqrt(self.nnz))

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def _flat_indices(self, coords: np.ndarray | None = None) -> np.ndarray:
        """Row-major flat index per coordinate row (used for set algebra)."""
        if coords is None:
            coords = self.coords
        return np.ravel_multi_index(coords.T, self.shape)

    def __contains__(self, coordinate: tuple[int, ...]) -> bool:
        coordinate = tuple(int(c) for c in coordinate)
        if len(coordinate) != self.ndim:
            raise ValueError(f"expected {self.ndim} indices, got {len(coordinate)}")
        if any(not 0 <= c < s for c, s in zip(coordinate, self.shape)):
            raise IndexError(f"coordinate {coordinate} out of bounds for {self.shape}")
        flat = np.ravel_multi_index(coordinate, self.shape)
        return bool(locate(self._flat_indices(), np.array([flat]))[1][0])

    # ------------------------------------------------------------------
    # Set algebra (Boolean tensor operations)
    # ------------------------------------------------------------------
    def _check_same_shape(self, other: "SparseBoolTensor") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def boolean_or(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        """Boolean sum X ⊕ Y (Eq. 5)."""
        self._check_same_shape(other)
        coords = np.concatenate([self.coords, other.coords], axis=0)
        return SparseBoolTensor(self.shape, coords)

    def boolean_and(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        self._check_same_shape(other)
        mask = np.isin(self._flat_indices(), other._flat_indices(), assume_unique=True)
        return SparseBoolTensor(self.shape, self.coords[mask])

    def xor(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        self._check_same_shape(other)
        in_other = np.isin(self._flat_indices(), other._flat_indices(), assume_unique=True)
        in_self = np.isin(other._flat_indices(), self._flat_indices(), assume_unique=True)
        coords = np.concatenate([self.coords[~in_other], other.coords[~in_self]], axis=0)
        return SparseBoolTensor(self.shape, coords)

    def minus(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        """Entries of self that are not in other."""
        self._check_same_shape(other)
        mask = np.isin(self._flat_indices(), other._flat_indices(), assume_unique=True)
        return SparseBoolTensor(self.shape, self.coords[~mask])

    def hamming_distance(self, other: "SparseBoolTensor") -> int:
        """|X ⊕ Y| counting differing cells — the paper's error measure."""
        self._check_same_shape(other)
        _, common = locate(self._flat_indices(), other._flat_indices())
        return self.nnz + other.nnz - 2 * int(common.sum())

    def apply_delta(self, delta) -> "SparseBoolTensor":
        """The tensor one epoch later: ``delta.added`` on, ``delta.removed`` off.

        Strict by design: removing an absent cell or adding a present one
        means the delta was produced against a different base tensor, and an
        incremental factorization advanced with it would silently diverge
        from the from-scratch result — so both raise instead of saturating.

        Both sides are already sorted, so the delta's cells are found by
        binary search and merged in: O(|Δ| log |X|) plus one linear copy,
        with no re-sort of the tensor.
        """
        if tuple(delta.shape) != self.shape:
            raise ValueError(
                f"delta shape {tuple(delta.shape)} does not match tensor "
                f"shape {self.shape}"
            )
        flats = self._flat_indices()
        removed_at, present = locate(flats, delta.removed)
        if not present.all():
            raise ValueError(
                f"delta removes {int((~present).sum())} cell(s) not "
                f"present in the tensor (delta built against a "
                f"different base?)"
            )
        _, duplicate = locate(flats, delta.added)
        if duplicate.any():
            raise ValueError(
                f"delta adds {int(duplicate.sum())} cell(s) already "
                f"present in the tensor (delta built against a "
                f"different base?)"
            )
        new_flats = merge_sorted(np.delete(flats, removed_at), delta.added)
        return SparseBoolTensor(self.shape, coords_from_flat(new_flats, self.shape))

    # ------------------------------------------------------------------
    # Conversion / inspection
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.uint8)
        if self.nnz:
            dense[tuple(self.coords.T)] = 1
        return dense

    def mode_slice(self, mode: int, index: int) -> "SparseBoolTensor":
        """The sub-tensor with mode ``mode`` fixed at ``index`` (mode dropped)."""
        if not 0 <= mode < self.ndim:
            raise ValueError(f"mode {mode} out of range for {self.ndim}-way tensor")
        if not 0 <= index < self.shape[mode]:
            raise IndexError(f"index {index} out of bounds for mode {mode}")
        keep = self.coords[:, mode] == index
        remaining = [m for m in range(self.ndim) if m != mode]
        new_shape = tuple(self.shape[m] for m in remaining)
        return SparseBoolTensor(new_shape, self.coords[keep][:, remaining])

    def mode_indices(self, mode: int) -> np.ndarray:
        """Distinct indices along ``mode`` that carry at least one nonzero."""
        if not 0 <= mode < self.ndim:
            raise ValueError(f"mode {mode} out of range for {self.ndim}-way tensor")
        return sorted_unique(self.coords[:, mode])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseBoolTensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.coords, other.coords))

    def __hash__(self):
        raise TypeError("SparseBoolTensor is mutable and unhashable")

    def __repr__(self) -> str:
        return f"SparseBoolTensor(shape={self.shape}, nnz={self.nnz})"
