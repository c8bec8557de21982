"""Plain-text I/O for sparse Boolean tensors and binary factor matrices.

The tensor format mirrors the coordinate files the paper's released
datasets use: a header line ``# shape I J K`` followed by one
whitespace-separated coordinate triple per nonzero.  Factor matrices use
the same format with a ``# matrix N R`` header and (row, column) pairs.
"""

from __future__ import annotations

import os

import numpy as np

from ..bitops import BitMatrix
from .sparse import SparseBoolTensor

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_matrix",
    "load_matrix",
    "save_factors",
    "load_factors",
]

_FACTOR_FILES = ("A.mtx", "B.mtx", "C.mtx")

_HEADER_PREFIX = "# shape"
_MATRIX_HEADER_PREFIX = "# matrix"


def save_tensor(tensor: SparseBoolTensor, path: str | os.PathLike) -> None:
    """Write a tensor to a coordinate-list text file."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{_HEADER_PREFIX} {' '.join(str(s) for s in tensor.shape)}\n")
        for coordinate in tensor.coords:
            handle.write(" ".join(str(int(c)) for c in coordinate) + "\n")


def _parse_ints(tokens: list[str], path, line_number: int) -> list[int]:
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise ValueError(
            f"{path}:{line_number}: expected integers, got {' '.join(tokens)!r}"
        ) from None


def _read_header(handle, path, prefix: str, arity: "int | None") -> tuple[int, ...]:
    """The dimensions on line 1: ``arity`` of them, or at least one if None."""
    header = handle.readline().strip()
    if not header.startswith(prefix):
        raise ValueError(f"{path}:1: missing '{prefix}' header, got {header!r}")
    dims = _parse_ints(header[len(prefix) :].split(), path, 1)
    if not dims or (arity is not None and len(dims) != arity):
        raise ValueError(
            f"{path}:1: expected {arity or 'at least one'} dimension(s) "
            f"after '{prefix}', got {header!r}"
        )
    if any(dim < 0 for dim in dims):
        raise ValueError(f"{path}:1: negative dimension in {header!r}")
    return tuple(dims)


def _read_indices(handle, path, shape: tuple[int, ...]):
    """Yield each data line's indices, checked against ``shape``."""
    for line_number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != len(shape):
            raise ValueError(
                f"{path}:{line_number}: expected {len(shape)} indices, "
                f"got {len(parts)}"
            )
        indices = _parse_ints(parts, path, line_number)
        if any(not 0 <= index < dim for index, dim in zip(indices, shape)):
            raise ValueError(
                f"{path}:{line_number}: indices {tuple(indices)} out of range "
                f"for shape {shape}"
            )
        yield indices


def load_tensor(path: str | os.PathLike) -> SparseBoolTensor:
    """Read a tensor written by :func:`save_tensor`.

    A malformed header, a non-integer token, or an index outside the
    header's shape raises ``ValueError`` naming ``path:line``.
    """
    with open(path, "r", encoding="ascii") as handle:
        shape = _read_header(handle, path, _HEADER_PREFIX, None)
        coords = list(_read_indices(handle, path, shape))
    coord_array = np.asarray(coords, dtype=np.int64).reshape(-1, len(shape))
    return SparseBoolTensor(shape, coord_array)


def save_matrix(matrix: BitMatrix, path: str | os.PathLike) -> None:
    """Write a binary factor matrix as sparse (row, column) pairs."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{_MATRIX_HEADER_PREFIX} {matrix.n_rows} {matrix.n_cols}\n")
        dense = matrix.to_dense()
        for row, col in np.argwhere(dense):
            handle.write(f"{row} {col}\n")


def load_matrix(path: str | os.PathLike) -> BitMatrix:
    """Read a factor matrix written by :func:`save_matrix`.

    Errors are reported as in :func:`load_tensor`.
    """
    with open(path, "r", encoding="ascii") as handle:
        shape = _read_header(handle, path, _MATRIX_HEADER_PREFIX, 2)
        dense = np.zeros(shape, dtype=np.uint8)
        for row, col in _read_indices(handle, path, shape):
            dense[row, col] = 1
    return BitMatrix.from_dense(dense)


def save_factors(
    factors: tuple[BitMatrix, BitMatrix, BitMatrix], directory: str | os.PathLike
) -> None:
    """Write a CP factor triple as ``A.mtx``/``B.mtx``/``C.mtx``."""
    os.makedirs(directory, exist_ok=True)
    for filename, factor in zip(_FACTOR_FILES, factors):
        save_matrix(factor, os.path.join(directory, filename))


def load_factors(
    directory: str | os.PathLike,
) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """Read a factor triple written by :func:`save_factors`."""
    return tuple(
        load_matrix(os.path.join(directory, filename)) for filename in _FACTOR_FILES
    )
