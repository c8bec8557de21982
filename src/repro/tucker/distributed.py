"""Distributed Boolean Tucker factorization on the simulated engine.

The journal extension of DBTF generalizes its distributed machinery from CP
to Tucker.  The key observation that keeps the row-summation cache usable:
in the mode-1 matricized form

    X_(1)  ≈  A ∘ [ G_(1) (C ⊗ B)ᵀ ]

the coverage of component p inside PVM block k is

    OR over (q, r) with g_pqr AND c_kr of  b_:q
      =  row p of  (S_u ∘ Bᵀ),   where  S_u[p, q] = OR_r g_pqr AND u_r

and ``u = c_k:``.  The *effective basis matrix* ``S_u ∘ Bᵀ`` therefore only
depends on the outer row's bit pattern ``u`` — there are at most
``min(K, 2**R3)`` distinct patterns — so the factor updates run DBTF's own
column update (:func:`~repro.core.update.update_factor` with the permuted
core), whose workers stack one cache table per distinct pattern
(:func:`~repro.core.update.tucker_kernel_tables`).

The binary core is updated on the driver (entry-wise greedy against
coverage counts, as in :mod:`repro.tucker.decompose`); in the journal
algorithm the core update is likewise a driver-coordinated step since the
core is tiny compared to the factors.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix
from ..core.config import DbtfConfig
from ..core.decompose import prepare_partitioned_unfoldings
from ..core.update import update_factor
from ..distengine import Distributed, SimulatedRuntime
from ..tensor import SparseBoolTensor
from .decompose import (
    BooleanTuckerConfig,
    BooleanTuckerResult,
    _sampled_tucker_factors,
    _update_core,
)

__all__ = ["dbtf_tucker"]


# Per mode: (outer factor index, inner factor index, core permutation) such
# that S_u[t, i] = OR_o core_perm[t, i, o] AND u_o with u the outer row.
_TUCKER_MODE_ROLES = {
    0: (2, 1, (0, 1, 2)),  # update A: outer C (R3), inner B (R2)
    1: (2, 0, (1, 0, 2)),  # update B: outer C (R3), inner A (R1)
    2: (1, 0, (2, 0, 1)),  # update C: outer B (R2), inner A (R1)
}


def dbtf_tucker(
    tensor: SparseBoolTensor,
    core_shape: tuple[int, int, int] | None = None,
    config: BooleanTuckerConfig | None = None,
    n_partitions: int = 16,
    cache_group_size: int = 15,
    runtime: SimulatedRuntime | None = None,
) -> BooleanTuckerResult:
    """Distributed Boolean Tucker decomposition (journal-style DBTF).

    Factor updates run through the simulated engine on DBTF's column
    kernel with per-pattern effective-basis tables; core updates run on
    the driver.  Results match :func:`repro.tucker.boolean_tucker` for the
    same initialization because both implement the same greedy updates.
    Without a ``runtime`` the solve runs on a serial runtime of the
    default cluster; pass ``runtime=SimulatedRuntime(cluster)`` to choose
    the backend.  Results and metered costs are backend-invariant.
    """
    if tensor.ndim != 3:
        raise ValueError(
            f"dbtf_tucker factorizes three-way tensors, got {tensor.ndim}-way"
        )
    if config is None:
        if core_shape is None:
            raise ValueError("either core_shape or config must be provided")
        config = BooleanTuckerConfig(core_shape=core_shape)
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be positive, got {n_partitions}")
    owns_runtime = runtime is None
    if runtime is None:
        runtime = SimulatedRuntime()

    mode_rdds: list[Distributed] = []
    try:
        mode_rdds = prepare_partitioned_unfoldings(tensor, n_partitions, runtime)
        dense = tensor.to_dense()

        best: BooleanTuckerResult | None = None
        for restart in range(config.n_initial_sets):
            rng = np.random.default_rng(config.seed + restart)
            candidate = _solve_once_distributed(
                tensor, dense, mode_rdds, config, cache_group_size, runtime, rng
            )
            if best is None or candidate.error < best.error:
                best = candidate
    finally:
        for rdd in mode_rdds:
            rdd.unpersist()
        if owns_runtime:
            runtime.close()
    return best


def _solve_once_distributed(
    tensor: SparseBoolTensor,
    dense: np.ndarray,
    mode_rdds: list[Distributed],
    config: BooleanTuckerConfig,
    cache_group_size: int,
    runtime: SimulatedRuntime,
    rng: np.random.Generator,
) -> BooleanTuckerResult:
    factors = [
        BitMatrix.from_dense(factor)
        for factor in _sampled_tucker_factors(tensor, config, rng)
    ]
    core = np.zeros(config.core_shape, dtype=np.uint8)
    for r in range(min(config.core_shape)):
        core[r, r, r] = 1

    errors: list[int] = []
    converged = False
    threshold = config.tolerance * max(tensor.nnz, 1)
    # The exact error of the current factors and core, carried from each
    # update into the next as in `dbtf`: only the first update scans every
    # block to seed it.
    error = None
    for _ in range(config.max_iterations):
        for mode in range(3):
            outer_index, inner_index, permutation = _TUCKER_MODE_ROLES[mode]
            factors[mode], error = update_factor(
                mode_rdds[mode],
                factors[mode],
                factors[outer_index],
                factors[inner_index],
                DbtfConfig(
                    rank=config.core_shape[mode],
                    cache_group_size=cache_group_size,
                ),
                runtime,
                error_before=error,
                core=core.transpose(permutation),
            )
        core, error = _update_core(
            dense, core, tuple(factor.to_dense() for factor in factors)
        )
        if errors and errors[-1] - error <= threshold:
            errors.append(error)
            converged = True
            break
        errors.append(error)

    return BooleanTuckerResult(
        core=SparseBoolTensor.from_dense(core),
        factors=tuple(factors),
        error=errors[-1],
        input_nnz=tensor.nnz,
        errors_per_iteration=tuple(errors),
        converged=converged,
    )
