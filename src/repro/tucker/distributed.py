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
``min(K, 2**R3)`` distinct patterns — so each partition builds one
row-summation cache table per distinct pattern and the CP update kernel
carries over: key = the target row's bitmask, candidate-1 evaluated as a
delta over newly covered cells.

The binary core is updated on the driver (entry-wise greedy against
coverage counts, as in :mod:`repro.tucker.decompose`); in the journal
algorithm the core update is likewise a driver-coordinated step since the
core is tiny compared to the factors.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, packing
from ..bitops.ops import xor_popcount_rows
from ..core.cache import RowSummationCache
from ..observability.trace import kernel_span
from ..core.decompose import prepare_partitioned_unfoldings
from ..core.partition import PartitionData
from ..core.update import _target_masks
from ..distengine import DEFAULT_CLUSTER, Distributed, SimulatedRuntime
from ..tensor import SparseBoolTensor
from .decompose import (
    BooleanTuckerConfig,
    BooleanTuckerResult,
    _sampled_tucker_factors,
    _update_core,
)

__all__ = ["dbtf_tucker", "TuckerCachedPartition", "update_tucker_factor"]


class TuckerCachedPartition:
    """A partition plus per-pattern effective-basis caches.

    Blocks are grouped by the bit pattern of their PVM's outer-factor row;
    each distinct pattern gets the effective basis ``S_u ∘ innerᵀ`` and a
    full row-summation cache over its ``R_target`` rows.
    """

    __slots__ = ("data", "entries", "n_rows")

    def __init__(
        self,
        data: PartitionData,
        outer: BitMatrix,
        inner: BitMatrix,
        core_perm: np.ndarray,
        group_size: int,
    ):
        self.data = data
        self.n_rows = data.n_rows
        inner_dense = inner.to_dense().astype(np.int64)
        caches: dict[int, tuple[RowSummationCache, np.ndarray]] = {}
        # (block, cache, sliced tables, coverage rows sliced, tensor words)
        self.entries: list[tuple] = []
        build_span = kernel_span(
            "tucker.cacheBuild", n_blocks=len(data.plan.blocks)
        )
        with build_span:
            self._build(data, outer, inner, inner_dense, caches,
                        core_perm, group_size)
            build_span.set(n_patterns=len(caches))

    def _build(self, data, outer, inner, inner_dense, caches,
               core_perm, group_size) -> None:
        for block in data.plan.blocks:
            pattern = outer.row_mask(block.pvm_index)
            if pattern not in caches:
                bits = np.array(
                    [(pattern >> r) & 1 for r in range(outer.n_cols)],
                    dtype=np.int64,
                )
                selector = (core_perm.astype(np.int64) @ bits) > 0  # (Rt, Ri)
                coverage_dense = ((selector.astype(np.int64) @ inner_dense.T) > 0)
                coverage = BitMatrix.from_dense(coverage_dense.astype(np.uint8))
                cache = RowSummationCache(coverage.transpose(), group_size)
                caches[pattern] = (cache, coverage.words)
            cache, coverage_words = caches[pattern]
            tables = cache.tables_for(block.start, block.stop)
            if block.is_full:
                coverage_sliced = coverage_words
            else:
                coverage_sliced = packing.slice_bits(
                    coverage_words, block.start, block.stop
                )
            self.entries.append(
                (block, cache, tables, coverage_sliced,
                 data.block_words(block))
            )

    def column_errors(
        self, masks_if_zero: np.ndarray, column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partition-local errors for both values of ``target[:, column]``.

        Unlike CP, the cache key is the target row's mask alone — the outer
        factor's influence is baked into each block's pattern table.
        """
        with kernel_span("tucker.columnErrors", rows=self.n_rows,
                         column=column, n_blocks=len(self.entries)):
            return self._column_errors(masks_if_zero, column)

    def _column_errors(
        self, masks_if_zero: np.ndarray, column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        error_if_zero = np.zeros(self.n_rows, dtype=np.int64)
        delta_if_one = np.zeros(self.n_rows, dtype=np.int64)
        keys = None
        for block, cache, tables, coverage_sliced, tensor_words in self.entries:
            if keys is None:
                keys = cache.group_keys(masks_if_zero)
            rec_zero = cache.fetch(tables, keys)
            error_if_zero += xor_popcount_rows(rec_zero, tensor_words)
            addition = coverage_sliced[column]
            newly = addition[None, :] & ~rec_zero
            delta_if_one += packing.popcount_rows(newly)
            delta_if_one -= 2 * packing.popcount_rows(newly & tensor_words)
        return error_if_zero, error_if_zero + delta_if_one


class _BuildTuckerCacheFromHandle:
    """Stage payload: build the Tucker caches from a broadcast handle.

    The handle resolves to ``[target_words, outer_words, inner_words,
    core_perm]`` worker-side; only matrix dimensions ride in the payload.
    """

    __slots__ = ("factors", "outer_shape", "inner_shape", "group_size")

    def __init__(self, factors, outer_shape, inner_shape, group_size):
        self.factors = factors
        self.outer_shape = outer_shape
        self.inner_shape = inner_shape
        self.group_size = group_size

    def __call__(self, data) -> TuckerCachedPartition:
        _, outer_words, inner_words, core_perm = self.factors.value
        outer = BitMatrix(*self.outer_shape, outer_words)
        inner = BitMatrix(*self.inner_shape, inner_words)
        return TuckerCachedPartition(
            data, outer, inner, core_perm, self.group_size
        )


class _TuckerColumnErrorsDeltaTask:
    """Stage payload: one Tucker column's errors, delta-only traffic.

    The target masks come from the same worker-side slot as the CP
    :class:`~repro.core.update._ColumnErrorsDeltaTask`'s
    (:func:`~repro.core.update._target_masks`): base target words from the
    handle with this column cleared and prior columns set from packed
    deltas — a pure function of the payload, so results stay bit-identical
    across backends — derived from the previous column's masks with the
    newest delta alone.
    """

    __slots__ = ("factors", "column", "deltas")

    def __init__(self, factors, column: int, deltas: tuple):
        self.factors = factors
        self.column = column
        self.deltas = deltas

    def __call__(self, cached: TuckerCachedPartition):
        masks = _target_masks(self.factors, self.column, self.deltas)
        return cached.column_errors(masks, self.column)


def update_tucker_factor(
    data_rdd: Distributed,
    target: BitMatrix,
    outer: BitMatrix,
    inner: BitMatrix,
    core_perm: np.ndarray,
    group_size: int,
    runtime: SimulatedRuntime,
) -> tuple[BitMatrix, int]:
    """Distributed greedy column update of one Tucker factor."""
    factors = runtime.broadcast(
        [target.words, outer.words, inner.words, core_perm],
        name="updateTuckerFactor.broadcast",
    )
    # Persisted for the same reason as the CP update: every column stage
    # reuses the per-pattern caches, and the plan layer fuses the build
    # into the first column's stage via a persist tap.
    build_task = _BuildTuckerCacheFromHandle(
        factors, outer.shape, inner.shape, group_size
    )
    cached_rdd = data_rdd.map(build_task, name="cacheTuckerSummations").persist()
    updated = target.copy()
    error_after = 0
    deltas: list[tuple] = []
    for column in range(target.n_cols):
        task = _TuckerColumnErrorsDeltaTask(factors, column, tuple(deltas))
        per_partition = cached_rdd.map(
            task, name="tuckerColumnErrors"
        ).collect(name="collectTuckerColumnErrors")
        error_if_zero = np.zeros(updated.n_rows, dtype=np.int64)
        error_if_one = np.zeros(updated.n_rows, dtype=np.int64)
        for partial_zero, partial_one in per_partition:
            error_if_zero += partial_zero
            error_if_one += partial_one
        chosen = (error_if_one < error_if_zero).astype(np.uint8)
        updated.set_column(column, chosen)
        error_after = int(np.minimum(error_if_zero, error_if_one).sum())
        delta = runtime.broadcast(np.packbits(chosen), name="tuckerColumnUpdate")
        deltas.append((column, delta))
    cached_rdd.unpersist()
    return updated, error_after


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
    backend: str = "serial",
    n_workers: int | None = None,
) -> BooleanTuckerResult:
    """Distributed Boolean Tucker decomposition (journal-style DBTF).

    Factor updates run through the simulated engine with per-pattern
    effective-basis caches; core updates run on the driver.  Results match
    :func:`repro.tucker.boolean_tucker` for the same initialization because
    both implement the same greedy updates.  ``backend``/``n_workers``
    select the host-side stage executor when no ``runtime`` is supplied;
    results and metered costs are backend-invariant.
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
        runtime = SimulatedRuntime(
            DEFAULT_CLUSTER.with_backend(backend, n_workers)
        )

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
    factors_dense = list(_sampled_tucker_factors(tensor, config, rng))
    core = np.zeros(config.core_shape, dtype=np.uint8)
    for r in range(min(config.core_shape)):
        core[r, r, r] = 1

    errors: list[int] = []
    converged = False
    threshold = config.tolerance * max(tensor.nnz, 1)
    for _ in range(config.max_iterations):
        for mode in range(3):
            outer_index, inner_index, permutation = _TUCKER_MODE_ROLES[mode]
            updated, _ = update_tucker_factor(
                mode_rdds[mode],
                BitMatrix.from_dense(factors_dense[mode]),
                BitMatrix.from_dense(factors_dense[outer_index]),
                BitMatrix.from_dense(factors_dense[inner_index]),
                core.transpose(permutation),
                cache_group_size,
                runtime,
            )
            factors_dense[mode] = updated.to_dense()
        core, error = _update_core(dense, core, tuple(factors_dense))
        if errors and errors[-1] - error <= threshold:
            errors.append(error)
            converged = True
            break
        errors.append(error)

    return BooleanTuckerResult(
        core=SparseBoolTensor.from_dense(core),
        factors=tuple(BitMatrix.from_dense(factor) for factor in factors_dense),
        error=errors[-1],
        input_nnz=tensor.nnz,
        errors_per_iteration=tuple(errors),
        converged=converged,
    )
