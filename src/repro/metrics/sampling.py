"""Sampling-based reconstruction-error estimation.

Exact error evaluation touches every cell of the reconstruction; at the
paper's billion-cell scale that is itself a heavy job.  This module
estimates ``|X ⊕ X̃|`` from a uniform sample of cells: each sampled cell is
checked against both the tensor and the factors' coverage, and the observed
disagreement rate is scaled to the full cell count.  The estimator is
unbiased; its standard error shrinks as ``1 / sqrt(n_samples)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bitops import BitMatrix
from ..tensor import SparseBoolTensor
from ..tensor.sparse import locate

__all__ = ["ErrorEstimate", "estimate_reconstruction_error"]

Factors = tuple[BitMatrix, BitMatrix, BitMatrix]


@dataclass(frozen=True)
class ErrorEstimate:
    """A sampled estimate of the reconstruction error."""

    estimate: float
    std_error: float
    n_samples: int
    disagreements: int


def _covered(factors: Factors, cells: np.ndarray) -> np.ndarray:
    """Whether the Boolean CP reconstruction covers each sampled cell."""
    a_dense = factors[0].to_dense().astype(bool)
    b_dense = factors[1].to_dense().astype(bool)
    c_dense = factors[2].to_dense().astype(bool)
    joint = (
        a_dense[cells[:, 0]] & b_dense[cells[:, 1]] & c_dense[cells[:, 2]]
    )
    return joint.any(axis=1)


def estimate_reconstruction_error(
    tensor: SparseBoolTensor,
    factors: Factors,
    n_samples: int,
    rng: np.random.Generator,
) -> ErrorEstimate:
    """Estimate ``|X ⊕ X̃|`` from a uniform cell sample.

    Parameters
    ----------
    tensor:
        The binary input tensor.
    factors:
        The candidate Boolean CP factors.
    n_samples:
        Cells to sample (with replacement; unbiased either way).
    rng:
        Randomness source.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    n_cells = tensor.n_cells
    flat = rng.integers(0, n_cells, size=n_samples)
    cells = np.stack(np.unravel_index(flat, tensor.shape), axis=1)

    # Membership in the tensor, via its sorted flat indices.
    in_tensor = locate(tensor.flat, flat)[1]

    in_reconstruction = _covered(factors, cells)
    disagreements = int((in_tensor != in_reconstruction).sum())
    rate = disagreements / n_samples
    estimate = rate * n_cells
    std_error = n_cells * math.sqrt(max(rate * (1 - rate), 0.0) / n_samples)
    return ErrorEstimate(
        estimate=estimate,
        std_error=std_error,
        n_samples=n_samples,
        disagreements=disagreements,
    )
