"""Epoch deltas for evolving Boolean tensors.

A :class:`TensorDelta` is the canonical "what changed since last epoch"
record: two sorted, deduplicated, disjoint sets of row-major flat cell
indices — cells that turned 0→1 (``added``) and cells that turned 1→0
(``removed``).  Flat indices rather than coordinate rows are the
canonical form of :class:`~repro.tensor.sparse.SparseBoolTensor` too, so
applying a delta is a binary search plus one merge into the tensor's
sorted cells, and the wire/disk form is compact.

``save_delta``/``load_delta`` give deltas the same human-readable text
format the rest of :mod:`repro.tensor.io` uses, so an evolving-tensor
pipeline can spool one delta file per tick next to its tensor files.
"""

from __future__ import annotations

import os

import numpy as np

from .sparse import (
    SparseBoolTensor,
    canonical_flat,
    check_flat_shape,
    coords_from_flat,
    locate,
)

__all__ = ["TensorDelta", "save_delta", "load_delta"]


class TensorDelta:
    """An immutable set of cell flips between two same-shape Boolean tensors."""

    __slots__ = ("shape", "added", "removed")

    def __init__(self, shape: tuple[int, ...], added=None, removed=None):
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 0 for s in shape):
            raise ValueError(f"invalid tensor shape {shape}")
        check_flat_shape(shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "added", canonical_flat(added, shape, "added"))
        object.__setattr__(
            self, "removed", canonical_flat(removed, shape, "removed")
        )
        if locate(self.added, self.removed)[1].any():
            raise ValueError("a cell cannot be both added and removed")

    def __setattr__(self, name, value):
        raise AttributeError("TensorDelta is immutable")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coords(
        cls, shape: tuple[int, ...], added=None, removed=None
    ) -> "TensorDelta":
        """Build from ``(n, ndim)`` coordinate arrays instead of flat indices."""

        def flatten(coords):
            coords = np.asarray(
                [] if coords is None else coords, dtype=np.int64
            ).reshape(-1, len(shape))
            if coords.size == 0:
                return None
            if (coords < 0).any() or (
                coords >= np.asarray(shape, dtype=np.int64)[None, :]
            ).any():
                raise ValueError(f"coordinates out of bounds for shape {shape}")
            return np.ravel_multi_index(coords.T, shape)

        return cls(shape, flatten(added), flatten(removed))

    @classmethod
    def between(
        cls, old: SparseBoolTensor, new: SparseBoolTensor
    ) -> "TensorDelta":
        """The delta that advances ``old`` to ``new`` (same shape required)."""
        if old.shape != new.shape:
            raise ValueError(f"shape mismatch: {old.shape} vs {new.shape}")
        old_flat, new_flat = old.flat, new.flat
        added = new_flat[~locate(old_flat, new_flat)[1]]
        removed = old_flat[~locate(new_flat, old_flat)[1]]
        return cls(old.shape, added, removed)

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "TensorDelta":
        return cls(shape)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_added(self) -> int:
        return int(self.added.shape[0])

    @property
    def n_removed(self) -> int:
        return int(self.removed.shape[0])

    @property
    def n_changes(self) -> int:
        return self.n_added + self.n_removed

    @property
    def is_empty(self) -> bool:
        return self.n_changes == 0

    @property
    def nbytes(self) -> int:
        return int(self.added.nbytes + self.removed.nbytes)

    def added_coords(self) -> np.ndarray:
        """Added cells as an ``(n_added, ndim)`` coordinate array."""
        return coords_from_flat(self.added, self.shape)

    def removed_coords(self) -> np.ndarray:
        """Removed cells as an ``(n_removed, ndim)`` coordinate array."""
        return coords_from_flat(self.removed, self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorDelta):
            return NotImplemented
        return (
            self.shape == other.shape
            and bool(np.array_equal(self.added, other.added))
            and bool(np.array_equal(self.removed, other.removed))
        )

    def __hash__(self):
        return hash(
            (self.shape, self.added.tobytes(), self.removed.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"TensorDelta(shape={self.shape}, "
            f"+{self.n_added}/-{self.n_removed})"
        )


def save_delta(delta: TensorDelta, path: "str | os.PathLike") -> None:
    """Write one delta as text: a shape header then ``+``/``-`` coordinate lines.

    Format::

        # delta I J K
        + i j k
        - i j k
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# delta " + " ".join(str(s) for s in delta.shape) + "\n")
        for coordinate in delta.added_coords():
            handle.write("+ " + " ".join(str(int(c)) for c in coordinate) + "\n")
        for coordinate in delta.removed_coords():
            handle.write("- " + " ".join(str(int(c)) for c in coordinate) + "\n")


def _parse_indices(
    name: str, line_number: int, fields: list[str], what: str
) -> tuple[int, ...]:
    """``fields`` as integers, or a ``ValueError`` naming the file and line."""
    try:
        return tuple(int(field) for field in fields)
    except ValueError:
        raise ValueError(
            f"{name!r} line {line_number}: {what} must be integers, "
            f"got {' '.join(fields)!r}"
        ) from None


def load_delta(path: "str | os.PathLike") -> TensorDelta:
    """Read a delta written by :func:`save_delta`.

    A malformed header, a malformed line, or a coordinate outside the
    header's shape raises ``ValueError`` naming the path and line number.
    """
    name = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().split()
        if header[:2] != ["#", "delta"] or len(header) < 3:
            raise ValueError(f"{name!r} is not a tensor delta file")
        shape = _parse_indices(name, 1, header[2:], "shape")
        if min(shape) < 0:
            raise ValueError(f"{name!r} line 1: negative shape {shape}")
        added, removed = [], []
        for line_number, line in enumerate(handle, start=2):
            fields = line.split()
            if not fields:
                continue
            sign, coordinate = fields[0], fields[1:]
            if sign not in ("+", "-") or len(coordinate) != len(shape):
                raise ValueError(
                    f"{name!r} line {line_number}: expected "
                    f"'+' or '-' followed by {len(shape)} indices, got {line!r}"
                )
            index = _parse_indices(name, line_number, coordinate, "coordinates")
            if any(not 0 <= i < size for i, size in zip(index, shape)):
                raise ValueError(
                    f"{name!r} line {line_number}: coordinate {index} out of "
                    f"bounds for shape {shape}"
                )
            target = added if sign == "+" else removed
            target.append(index)
    return TensorDelta.from_coords(
        shape,
        np.asarray(added, dtype=np.int64).reshape(-1, len(shape)),
        np.asarray(removed, dtype=np.int64).reshape(-1, len(shape)),
    )
