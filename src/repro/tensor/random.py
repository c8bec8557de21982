"""Random Boolean tensors, random factors, and the paper's noise models.

Section IV-A.1 of the paper uses two synthetic families:

* *scalability tensors* — uniform random tensors with a target density, swept
  over dimensionality and density;
* *error tensors* — a noise-free tensor built from random factor matrices,
  then perturbed with **additive** noise (extra 1s, a percentage of the
  noise-free nonzero count) and **destructive** noise (deleted 1s).
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix
from .algebra import tensor_from_factors
from .sparse import SparseBoolTensor

__all__ = [
    "random_tensor",
    "random_factors",
    "planted_tensor",
    "add_additive_noise",
    "add_destructive_noise",
]


def random_tensor(
    shape: tuple[int, int, int], density: float, rng: np.random.Generator
) -> SparseBoolTensor:
    """A uniform random Boolean tensor with approximately the given density.

    Exactly ``round(density * cells)`` distinct cells are set, sampled
    without replacement, so the realized density is as close to the target
    as the discrete grid allows.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    n_cells = int(np.prod(np.asarray(shape, dtype=np.int64)))
    target = int(round(density * n_cells))
    if target == 0:
        return SparseBoolTensor(shape)
    flat = rng.choice(n_cells, size=target, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    return SparseBoolTensor(shape, coords)


def random_factors(
    shape: tuple[int, int, int],
    rank: int,
    density: float,
    rng: np.random.Generator,
) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """Three random binary factor matrices with i.i.d. Bernoulli entries."""
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    return tuple(
        BitMatrix.random(dimension, rank, density, rng) for dimension in shape
    )


def planted_tensor(
    shape: tuple[int, int, int],
    rank: int,
    factor_density: float,
    rng: np.random.Generator,
    additive_noise: float = 0.0,
    destructive_noise: float = 0.0,
) -> tuple[SparseBoolTensor, tuple[BitMatrix, BitMatrix, BitMatrix]]:
    """A tensor with known (planted) Boolean factors plus optional noise.

    Returns the noisy tensor and the noise-free planted factors, mirroring
    the reconstruction-error experiments of Section IV-D.
    """
    factors = random_factors(shape, rank, factor_density, rng)
    clean = tensor_from_factors(factors)
    noisy = clean
    if additive_noise > 0.0:
        noisy = add_additive_noise(noisy, additive_noise, rng, reference_nnz=clean.nnz)
    if destructive_noise > 0.0:
        noisy = add_destructive_noise(noisy, destructive_noise, rng, reference_nnz=clean.nnz)
    return noisy, factors


def add_additive_noise(
    tensor: SparseBoolTensor,
    level: float,
    rng: np.random.Generator,
    reference_nnz: int | None = None,
) -> SparseBoolTensor:
    """Flip 0-cells to 1.  ``level`` = fraction of the reference nonzero count.

    "10% additive noise indicates that we add 10% more 1s to the noise-free
    tensor" (paper Sec. IV-A.1).
    """
    if level < 0:
        raise ValueError(f"noise level must be non-negative, got {level}")
    reference = tensor.nnz if reference_nnz is None else reference_nnz
    target = int(round(level * reference))
    if target == 0:
        return tensor.copy()
    n_cells = tensor.n_cells
    existing = set(tensor.flat.tolist())
    free_cells = n_cells - len(existing)
    if target > free_cells:
        raise ValueError(
            f"cannot add {target} new nonzeros: only {free_cells} zero cells left"
        )
    added: set[int] = set()
    # Rejection-sample distinct zero cells; cheap because tensors are sparse.
    while len(added) < target:
        batch = rng.integers(0, n_cells, size=2 * (target - len(added)))
        for flat in batch.tolist():
            if flat not in existing and flat not in added:
                added.add(flat)
                if len(added) == target:
                    break
    new_coords = np.stack(
        np.unravel_index(np.fromiter(added, dtype=np.int64), tensor.shape), axis=1
    )
    return SparseBoolTensor(
        tensor.shape, np.concatenate([tensor.coords, new_coords], axis=0)
    )


def add_destructive_noise(
    tensor: SparseBoolTensor,
    level: float,
    rng: np.random.Generator,
    reference_nnz: int | None = None,
) -> SparseBoolTensor:
    """Delete 1-cells.  ``level`` = fraction of the reference nonzero count.

    "5% destructive noise means that we delete 5% of the 1s from the
    noise-free tensor" (paper Sec. IV-A.1).
    """
    if level < 0:
        raise ValueError(f"noise level must be non-negative, got {level}")
    reference = tensor.nnz if reference_nnz is None else reference_nnz
    target = min(int(round(level * reference)), tensor.nnz)
    if target == 0:
        return tensor.copy()
    doomed = rng.choice(tensor.nnz, size=target, replace=False)
    keep = np.ones(tensor.nnz, dtype=bool)
    keep[doomed] = False
    return SparseBoolTensor(tensor.shape, tensor.coords[keep])
