"""Sparse Boolean tensors: one sorted set of nonzero cells.

A Boolean tensor is a set of nonzero cells; all set-algebraic operations
(Boolean sum, difference, XOR) are set operations on it.  The class is
N-way, although the paper — and therefore the rest of this package —
works with three-way tensors.

The canonical order is sorted row-major flat indices: ``coords`` rows are
ordered and deduplicated exactly as their ``np.ravel_multi_index`` values
(``flat``) are, so every set operation, ``__contains__`` and
:class:`~repro.tensor.delta.TensorDelta` work on one sorted int64 array.
A shape whose cell count does not fit in int64 therefore has no flat
indices and is rejected at construction.

A tensor stores exactly one form, the one it was built from: coordinate
rows for the public constructor, flat indices for the results of
:meth:`~SparseBoolTensor.apply_delta` and the set algebra, which are
already sorted and validated.  The other form is derived when asked for
and never cached, so a tensor costs one array.  Both forms pickle, hash
and size identically (as coordinate rows).

Canonicalization is sort-based (``np.sort`` plus an adjacent-difference
mask, :func:`sorted_unique`), and sorted inputs are combined by binary
search (:func:`locate`, :func:`merge_sorted`) rather than re-sorted, so
advancing a tensor by a delta costs O(|Δ| log |X|) searches plus a
linear splice of the flat array — no re-sort, no re-validation and no
coordinate conversion.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

__all__ = ["SparseBoolTensor"]

_MAX_CELLS = int(np.iinfo(np.int64).max)

#: ``apply_delta`` copies runs slice by slice while the tensor holds more
#: than this many cells per changed cell, and by masks otherwise: a slice
#: costs about a microsecond, a masked pass a few nanoseconds per cell.
_CELLS_PER_RUN = 512


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


def _checked_shape(shape) -> tuple[int, ...]:
    """``shape`` as a tuple of ints, rejected if no tensor can have it."""
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ValueError(f"negative dimension in shape {shape}")
    if not shape:
        raise ValueError("tensor must have at least one mode")
    check_flat_shape(shape)
    return shape


def canonical_flat(values, shape: tuple[int, ...], what: str = "flat") -> np.ndarray:
    """Validate, deduplicate, and sort one set of flat indices into a new array."""
    flat = np.asarray([] if values is None else values, dtype=np.int64).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, dtype=np.int64)
    n_cells = math.prod(shape)
    if (flat < 0).any() or (flat >= n_cells).any():
        raise ValueError(
            f"{what} flat indices out of bounds for shape {shape} "
            f"({n_cells} cells)"
        )
    if (flat[1:] > flat[:-1]).all():
        # Already canonical; copy so the result never aliases the caller.
        return flat.copy()
    return sorted_unique(flat)


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
    """An N-way Boolean tensor stored as one sorted, deduplicated cell set.

    Exactly one of ``_coords`` (coordinate rows) and ``_flat`` (row-major
    flat indices) is set; :attr:`coords` and :attr:`flat` derive the other.
    """

    __slots__ = ("shape", "_coords", "_flat")

    def __init__(self, shape: tuple[int, ...], coords: np.ndarray | None = None):
        shape = _checked_shape(shape)
        self.shape = shape
        if coords is None:
            coords = np.zeros((0, len(shape)), dtype=np.int64)
        self._coords = _canonical_coords(coords, shape)
        self._flat = None

    @classmethod
    def _of_flat(cls, shape: tuple[int, ...], flat: np.ndarray) -> "SparseBoolTensor":
        """A tensor over already sorted, deduplicated, in-bounds flat indices.

        Trusts and keeps ``flat`` as is: callers pass a fresh array.
        """
        tensor = cls.__new__(cls)
        tensor.shape = shape
        tensor._coords = None
        tensor._flat = flat
        return tensor

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

    @classmethod
    def from_flat(cls, shape: tuple[int, ...], flat) -> "SparseBoolTensor":
        """Build from row-major flat indices (validated, sorted, deduplicated)."""
        shape = _checked_shape(shape)
        return cls._of_flat(shape, canonical_flat(flat, shape))

    def copy(self) -> "SparseBoolTensor":
        """An independent tensor over the same cells, in the same stored form."""
        if self._flat is not None:
            return self._of_flat(self.shape, self._flat.copy())
        return SparseBoolTensor(self.shape, self._coords)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """``(nnz, ndim)`` int64 coordinate rows, in row-major order."""
        if self._coords is not None:
            return self._coords
        return coords_from_flat(self._flat, self.shape)

    @property
    def flat(self) -> np.ndarray:
        """Sorted int64 row-major flat index of every nonzero."""
        if self._flat is not None:
            return self._flat
        return np.ravel_multi_index(self._coords.T, self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of nonzero entries, |X| in the paper's notation."""
        stored = self._coords if self._flat is None else self._flat
        return stored.shape[0]

    @property
    def n_cells(self) -> int:
        return int(np.prod(np.asarray(self.shape, dtype=np.int64)))

    @property
    def nbytes(self) -> int:
        """What :func:`~repro.distengine.shuffle.estimate_bytes` charges.

        The coordinate form's size — 8 bytes per shape entry and per
        coordinate, plus 8 per container (shape tuple, tensor) — whichever
        form is stored, so traffic ledgers do not depend on how a tensor
        was built.
        """
        return 8 * (self.ndim + 2 + self.nnz * self.ndim)

    def density(self) -> float:
        return self.nnz / self.n_cells if self.n_cells else 0.0

    def __contains__(self, coordinate: tuple[int, ...]) -> bool:
        coordinate = tuple(int(c) for c in coordinate)
        if len(coordinate) != self.ndim:
            raise ValueError(f"expected {self.ndim} indices, got {len(coordinate)}")
        if any(not 0 <= c < s for c, s in zip(coordinate, self.shape)):
            raise IndexError(f"coordinate {coordinate} out of bounds for {self.shape}")
        flat = np.ravel_multi_index(coordinate, self.shape)
        return bool(locate(self.flat, np.array([flat]))[1][0])

    # ------------------------------------------------------------------
    # Set algebra (Boolean tensor operations)
    # ------------------------------------------------------------------
    def _check_same_shape(self, other: "SparseBoolTensor") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def boolean_or(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        """Boolean sum X ⊕ Y (Eq. 5)."""
        self._check_same_shape(other)
        return self._of_flat(self.shape, merge_sorted(self.flat, other.flat))

    def boolean_and(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        self._check_same_shape(other)
        flat = self.flat
        return self._of_flat(self.shape, flat[locate(other.flat, flat)[1]])

    def xor(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        self._check_same_shape(other)
        mine, theirs = self.flat, other.flat
        only_mine = mine[~locate(theirs, mine)[1]]
        only_theirs = theirs[~locate(mine, theirs)[1]]
        return self._of_flat(self.shape, merge_sorted(only_mine, only_theirs))

    def minus(self, other: "SparseBoolTensor") -> "SparseBoolTensor":
        """Entries of self that are not in other."""
        self._check_same_shape(other)
        flat = self.flat
        return self._of_flat(self.shape, flat[~locate(other.flat, flat)[1]])

    def hamming_distance(self, other: "SparseBoolTensor") -> int:
        """|X ⊕ Y| counting differing cells — the paper's error measure."""
        self._check_same_shape(other)
        _, common = locate(self.flat, other.flat)
        return self.nnz + other.nnz - 2 * int(common.sum())

    def apply_delta(self, delta) -> "SparseBoolTensor":
        """The tensor one epoch later: ``delta.added`` on, ``delta.removed`` off.

        Strict by design: removing an absent cell or adding a present one
        means the delta was produced against a different base tensor, and an
        incremental factorization advanced with it would silently diverge
        from the from-scratch result — so both raise instead of saturating.

        Both sides are already sorted and validated, so the delta's cells
        are found by binary search: O(|Δ| log |X|) searches, no re-sort,
        re-validation or coordinate conversion.  Each added cell's place in
        the result follows from cumulative offsets: its insertion point,
        plus the cells added before it, less the cells removed before it.
        The kept cells fill the other places, in a fixed number of numpy
        passes — or, for a delta of few cells, as one slice per run between
        them, which copies less.  The result stores flat indices only.
        """
        if tuple(delta.shape) != self.shape:
            raise ValueError(
                f"delta shape {tuple(delta.shape)} does not match tensor "
                f"shape {self.shape}"
            )
        flat = self.flat
        removed_at, present = locate(flat, delta.removed)
        if not present.all():
            raise ValueError(
                f"delta removes {int((~present).sum())} cell(s) not "
                f"present in the tensor (delta built against a "
                f"different base?)"
            )
        added_at, duplicate = locate(flat, delta.added)
        if duplicate.any():
            raise ValueError(
                f"delta adds {int(duplicate.sum())} cell(s) already "
                f"present in the tensor (delta built against a "
                f"different base?)"
            )
        added = delta.added
        out = np.empty(flat.size - removed_at.size + added.size, flat.dtype)
        if (added.size + removed_at.size) * _CELLS_PER_RUN < flat.size:
            # Walk the cuts in flat order; an insertion point sorts before a
            # removed cell at the same index, since it lands before that
            # cell.
            cuts = np.concatenate((added_at, removed_at))
            order = np.argsort(cuts, kind="stable")
            pieces, start = [], 0
            for k, cut in zip(order.tolist(), cuts[order].tolist()):
                pieces.append(flat[start:cut])
                if k < added.size:
                    pieces.append(added[k:k + 1])
                    start = cut
                else:
                    start = cut + 1
            pieces.append(flat[start:])
            return self._of_flat(self.shape, np.concatenate(pieces, out=out))
        placed = (
            added_at + np.arange(added.size)
            - np.searchsorted(removed_at, added_at)
        )
        kept = np.ones(flat.size, dtype=bool)
        kept[removed_at] = False
        free = np.ones(out.size, dtype=bool)
        free[placed] = False
        out[free] = flat[kept]
        out[placed] = added
        return self._of_flat(self.shape, out)

    # ------------------------------------------------------------------
    # Conversion / inspection
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.uint8)
        dense.reshape(-1)[self.flat] = 1
        return dense

    def mode_indices(self, mode: int) -> np.ndarray:
        """Distinct indices along ``mode`` that carry at least one nonzero."""
        if not 0 <= mode < self.ndim:
            raise ValueError(f"mode {mode} out of range for {self.ndim}-way tensor")
        return sorted_unique(self.coords[:, mode])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseBoolTensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.flat, other.flat))

    def __hash__(self):
        raise TypeError("SparseBoolTensor is mutable and unhashable")

    # Both forms travel as coordinate rows — the state a slotted
    # ``(shape, coords)`` tensor pickles to — so pickled bytes and content
    # hashes depend only on the cells.
    def __getstate__(self):
        return None, {"shape": self.shape, "coords": self.coords}

    def __setstate__(self, state) -> None:
        _, slots = state
        self.shape = slots["shape"]
        self._coords = slots["coords"]
        self._flat = None

    def __repr__(self) -> str:
        return f"SparseBoolTensor(shape={self.shape}, nnz={self.nnz})"

