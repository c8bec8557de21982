"""The DBTF driver (paper Algorithm 2).

``dbtf`` unfolds the input tensor along its three modes, vertically
partitions and caches each unfolding across the (simulated) cluster, then
alternates factor-matrix updates until the reconstruction error stops
improving or the iteration budget runs out.  Optionally, L random
initializations compete in the first iteration and only the best survives.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..bitops import BitMatrix
from ..distengine import Distributed, SimulatedRuntime
from ..resilience import (
    CheckpointManager,
    config_fingerprint,
    factors_from_state,
    factors_state,
)
from ..tensor import MODE_FACTOR_ROLES, SparseBoolTensor
from ..tensor.sparse import locate
from .config import DbtfConfig
from .incremental import prepare_mode_partitions
from .result import DecompositionResult
from .steps import StepEvent, drive
from .update import DecisionCertificates, update_factor

__all__ = ["dbtf", "dbtf_steps", "prepare_partitioned_unfoldings"]

Factors = tuple[BitMatrix, BitMatrix, BitMatrix]


def prepare_partitioned_unfoldings(
    tensor: SparseBoolTensor,
    n_partitions: int,
    runtime: SimulatedRuntime,
) -> list[Distributed]:
    """Unfold, vertically partition, and cache the tensor per mode.

    This is paper Algorithm 3, run once up front.  The sparse unfolded
    nonzeros cross the network here (Lemma 6: O(|X|) shuffled bytes); each
    partition then organizes its share into bit-packed blocks locally, as a
    timed distributed stage.  Nothing of the tensor moves again afterwards
    (Lemma 7).  The packing stage is lazy and the result persisted: the
    plan layer fuses it into the first factor-update stage that touches the
    mode and caches the packed partitions there (a persist tap), so every
    later iteration reads the cache instead of re-packing.

    Under a memory budget (``ClusterConfig(memory_budget=...)``) the packed
    unfoldings are built through the runtime's memmap store and the
    partitions become zero-copy views over the files (see
    :func:`repro.core.incremental.prepare_mode_partitions`), with the
    storage tier budgeting what stays driver-resident — cold modes spill
    and page back in.
    """
    return [
        prepare_mode_partitions(tensor, mode, n_partitions, runtime)[0]
        for mode in range(3)
    ]


def _random_factors(
    tensor: SparseBoolTensor, config: DbtfConfig, rng: np.random.Generator
) -> Factors:
    """I.i.d. Bernoulli initialization (the paper's literal description).

    Unless overridden, the initial density is ``(density(X) / R) ** (1/3)``
    so the expected density of the initial reconstruction roughly matches
    the data (for small densities P[cell = 1] ≈ R · p³).
    """
    density = config.init_density
    if density is None:
        density = float(np.clip((tensor.density() / config.rank) ** (1 / 3), 0.01, 0.9))
    return tuple(
        BitMatrix.random(dimension, config.rank, density, rng)
        for dimension in tensor.shape
    )


def _sampled_factors(
    tensor: SparseBoolTensor, config: DbtfConfig, rng: np.random.Generator
) -> Factors:
    """Seed each component from the fibers through a random nonzero.

    For component r, a nonzero ``(i, j, k)`` is drawn and the three factor
    columns become the fibers ``x_:jk``, ``x_i:k``, and ``x_ij:`` — so the
    initial rank-1 blocks already overlap the data's support and the greedy
    updates can refine instead of collapsing to all zeros (DESIGN.md §5).

    The tensor's sorted row-major flat indices make every lookup a binary
    search: the ``i`` slab and the ``(i, j)`` slab are contiguous ranges,
    and ``x_:jk`` is one search per ``i``.  Coverage is tested only inside
    the slabs of the new ``x_:jk`` fiber, so a component costs
    O(I log nnz + its slabs) on top of the O(nnz) candidate scan.
    """
    shape = tensor.shape
    factors = tuple(BitMatrix.zeros(dimension, config.rank) for dimension in shape)
    coords = tensor.coords
    flat = tensor.flat
    slab = shape[1] * shape[2]
    rows = np.arange(shape[0], dtype=np.int64) * slab
    covered = np.zeros(tensor.nnz, dtype=bool)
    for r in range(config.rank):
        # Prefer seeds the components so far do not cover, so initial
        # components spread over the tensor's support.
        candidates = np.flatnonzero(~covered)
        if candidates.size == 0:
            candidates = np.arange(tensor.nnz)
        pick = int(candidates[rng.integers(0, candidates.size)])
        i, j, k = (int(v) for v in coords[pick])
        lo, hi = np.searchsorted(flat, [i * slab, (i + 1) * slab])
        pair_lo, pair_hi = np.searchsorted(
            flat, [i * slab + j * shape[2], i * slab + (j + 1) * shape[2]]
        )
        in_slab = coords[lo:hi]
        fibers = (
            np.flatnonzero(locate(flat, rows + (j * shape[2] + k))[1]),
            in_slab[in_slab[:, 2] == k, 1],
            coords[pair_lo:pair_hi, 2],
        )
        members = []
        for factor, fiber, dimension in zip(factors, fibers, shape):
            column = np.zeros(dimension, dtype=bool)
            column[fiber] = True
            factor.set_column(r, column)
            members.append(column)
        # A nonzero is covered iff all three of its indices lie in the
        # fibers; only the slabs of the mode-0 fiber can hold one.
        starts = np.searchsorted(flat, rows[fibers[0]])
        lengths = np.searchsorted(flat, rows[fibers[0]] + slab) - starts
        ends = np.cumsum(lengths)
        inside = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
        hit = members[1][coords[inside, 1]] & members[2][coords[inside, 2]]
        covered[inside[hit]] = True
    return factors


def _initial_factors(
    tensor: SparseBoolTensor, config: DbtfConfig, rng: np.random.Generator
) -> Factors:
    """One initialization according to ``config.initialization``."""
    if config.initialization == "random" or tensor.nnz == 0:
        return _random_factors(tensor, config, rng)
    return _sampled_factors(tensor, config, rng)


def _update_all_factors(
    mode_rdds: list[Distributed],
    factors: Factors,
    config: DbtfConfig,
    runtime: SimulatedRuntime,
    error: "int | None" = None,
    certificates: "list[DecisionCertificates] | None" = None,
) -> tuple[Factors, int]:
    """One outer iteration: update A, then B, then C (Algorithm 2 lines 14-18).

    ``error`` is the exact reconstruction error of ``factors`` when known;
    each update starts from the error the previous one returned, so only
    an unknown starting error costs a seeding full-block scan.  Returns the
    new factors and the reconstruction error after the final update, which
    equals ``|X ⊕ X̃|`` for the returned factors.  ``certificates`` are the
    per-mode :class:`~repro.core.update.DecisionCertificates`, if any.
    """
    current = list(factors)
    for mode in range(3):
        target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
        current[target_index], error = update_factor(
            mode_rdds[mode],
            current[target_index],
            current[outer_index],
            current[inner_index],
            config,
            runtime,
            error_before=error,
            certificates=None if certificates is None else certificates[mode],
        )
    return (current[0], current[1], current[2]), error


def _update_all_factors_scoped(
    mode_rdds: list[Distributed],
    factors: Factors,
    config: DbtfConfig,
    runtime: SimulatedRuntime,
    dirty_columns: "list[set[int]]",
    error: "int | None" = None,
    certificates: "list[DecisionCertificates] | None" = None,
) -> "tuple[Factors, int | None]":
    """One support-scoped outer iteration (the incremental warm restart).

    Each mode re-sweeps only its dirty columns — escalating to a full sweep
    of the remaining modes as soon as any evaluated column changes, because
    a changed column invalidates every later cached decision (its coverage
    feeds their ``rec0``).  ``error`` is the exact error of ``factors`` when
    known, and threads through the modes like the batch sweep's.  Returns
    ``(factors, error)`` where the error is the given one when *no* column
    anywhere was evaluated (an all-clean delta) and otherwise the exact
    reconstruction error after the last evaluated column.
    """
    current = list(factors)
    escalated = False
    all_columns = set(range(config.rank))
    for mode in range(3):
        target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
        dirty = all_columns if escalated else dirty_columns[mode]
        if not dirty:
            continue
        current[target_index], error, changed = update_factor(
            mode_rdds[mode],
            current[target_index],
            current[outer_index],
            current[inner_index],
            config,
            runtime,
            dirty_columns=dirty,
            error_before=error,
            certificates=None if certificates is None else certificates[mode],
        )
        if changed:
            escalated = True
    return (current[0], current[1], current[2]), error


def _dbtf_fingerprint(
    tensor: SparseBoolTensor, config: DbtfConfig, n_partitions: int
) -> str:
    """Fingerprint of everything that shapes the dbtf iteration trajectory.

    Stopping criteria (``max_iterations``, ``tolerance``) are deliberately
    excluded: resuming a crashed run with a larger budget is legitimate and
    continues the identical trajectory, whereas changing any field below
    would silently produce a different decomposition.
    """
    return config_fingerprint(
        {
            "algorithm": "dbtf",
            "rank": config.rank,
            "seed": config.seed,
            "initialization": config.initialization,
            "init_density": config.init_density,
            "n_initial_sets": config.n_initial_sets,
            "n_partitions": n_partitions,
            "cache_group_size": config.cache_group_size,
            "shape": list(tensor.shape),
            "nnz": tensor.nnz,
        }
    )


def _dbtf_state(
    factors: Factors,
    errors: list[int],
    converged: bool,
    rng: np.random.Generator,
    init_index: int,
) -> dict:
    """The complete picklable state of a dbtf run at an iteration boundary."""
    return {
        "factors": factors_state(factors),
        "errors": list(errors),
        "converged": converged,
        "rng_state": rng.bit_generator.state,
        "init_index": init_index,
    }


def dbtf(
    tensor: SparseBoolTensor,
    rank: int | None = None,
    config: DbtfConfig | None = None,
    runtime: SimulatedRuntime | None = None,
    **overrides,
) -> DecompositionResult:
    """Boolean CP decomposition of a three-way binary tensor with DBTF.

    Parameters
    ----------
    tensor:
        The binary input tensor.
    rank:
        Number of components R (ignored when ``config`` is given).
    config:
        Full configuration; built from ``rank`` and ``overrides`` if absent.
    runtime:
        Simulated cluster runtime to meter against; a fresh one is created
        (and attached to the result's report) if not provided.
    overrides:
        Extra :class:`DbtfConfig` fields, e.g. ``max_iterations=5, seed=3``.

    Returns
    -------
    DecompositionResult
        Factors, error trace, convergence flag, and the engine cost report.
    """
    if config is None:
        if rank is None:
            raise ValueError("either rank or config must be provided")
        config = DbtfConfig(rank=rank, **overrides)
    elif overrides:
        raise ValueError("pass either config or overrides, not both")
    owns_runtime = runtime is None
    if runtime is None:
        runtime = SimulatedRuntime(config.cluster)
    try:
        return drive(dbtf_steps(tensor, config, runtime))
    finally:
        # Only tear down worker pools we created — a caller-supplied
        # runtime may still have stages to run (and metering to read).
        if owns_runtime:
            runtime.close()


def dbtf_steps(
    tensor: SparseBoolTensor,
    config: DbtfConfig,
    runtime: SimulatedRuntime,
    *,
    warm_start: "dict | None" = None,
    shared_unfoldings: "list[Distributed] | None" = None,
    dirty_columns: "list[set[int]] | None" = None,
    baseline_error: "int | None" = None,
    certificates: "list[DecisionCertificates] | None" = None,
) -> Generator[StepEvent, None, DecompositionResult]:
    """Cooperatively-stepped DBTF: one outer iteration per ``next()``.

    Yields a :class:`~repro.core.steps.StepEvent` at every iteration
    boundary, *after* that boundary's checkpoint (when configured) has hit
    disk — so a consumer may stop between any two iterations (cancellation
    via ``close()``) and a later run with ``checkpoint.resume=True``
    continues bit-identically.  Draining the generator is exactly
    :func:`dbtf`; the service layer instead interleaves many generators
    over one shared worker pool.

    The keyword-only parameters are the incremental epoch-advance contract
    (:mod:`repro.incremental`); all default to the classic batch behavior:

    ``warm_start``
        A checkpoint-format state dict (the previous epoch's
        ``result.state``).  Skips initialization entirely: factors, RNG
        state, and the init index are restored and iteration starts at 1
        from a ``phase="warm"`` step 0.  A checkpoint resume, when
        configured and present, takes precedence — it encodes progress
        *within* this epoch.
    ``shared_unfoldings``
        Caller-owned partitioned mode RDDs (a
        :class:`~repro.core.incremental.PartitionedUnfoldings`' RDDs).
        The generator neither rebuilds nor unpersists them.
    ``dirty_columns``
        Per-mode sets of columns the epoch's delta can have moved
        (:func:`~repro.core.incremental.dirty_columns_for_delta`).  Only
        honored for the first warm iteration; clean columns skip their
        error evaluations, escalating to full sweeps on any change.  All
        three sets empty means the warm factors are untouched by the delta:
        the run converges at the baseline error with zero stages.
    ``baseline_error``
        The warm factors' exact reconstruction error on *this* tensor
        (:func:`~repro.core.incremental.baseline_error_after_delta`).
        Defaults to the warm state's last recorded error, which is only
        valid when the tensor is unchanged.
    ``certificates``
        Per-mode :class:`~repro.core.update.DecisionCertificates` of the
        shared unfoldings (a
        :class:`~repro.core.incremental.PartitionedUnfoldings` keeps them
        across epochs).  Every update reads and reissues its mode's; the
        results are the same without them.
    """
    if tensor.ndim != 3:
        raise ValueError(f"DBTF factorizes three-way tensors, got {tensor.ndim}-way")
    n_partitions = config.resolved_partitions(runtime.config)
    manager = None
    if config.checkpoint is not None:
        manager = CheckpointManager(
            config.checkpoint,
            _dbtf_fingerprint(tensor, config, n_partitions),
            metrics=runtime.metrics,
            tracer=runtime.tracer,
        )

    owns_unfoldings = shared_unfoldings is None
    mode_rdds: list[Distributed] = []
    try:
        rng = np.random.default_rng(config.seed)
        # The partitioned unfoldings are rebuilt unless the caller shares a
        # live set — they are derived data (lineage recomputation,
        # like Spark rebuilding a lost RDD), so checkpoints stay small:
        # only the factors, error trace, and RNG state go to disk.
        # Rebuilding is lazy: the packing stage dispatches fused into the
        # first factor update that touches each mode.
        mode_rdds = (
            list(shared_unfoldings)
            if shared_unfoldings is not None
            else prepare_partitioned_unfoldings(tensor, n_partitions, runtime)
        )

        resumed = None
        if manager is not None and config.checkpoint.resume:
            resumed = manager.load_latest()
        scoped = False
        if resumed is not None:
            step, state = resumed
            factors = factors_from_state(state["factors"])
            errors = list(state["errors"])
            converged = bool(state["converged"])
            init_index = int(state["init_index"])
            # RNG draws all happen during initialization, but restoring the
            # generator state keeps any future rng consumer bit-identical.
            rng.bit_generator.state = state["rng_state"]
            start_iteration = step + 1
            # A resume at step 0 of a warm epoch restarts the epoch's first
            # (and only scoped) iteration; any later step means the scoped
            # pass already ran and full sweeps continue the trajectory.
            scoped = (
                dirty_columns is not None and warm_start is not None and step == 0
            )
            # Step 0 of a warm epoch recorded the baseline error, which is
            # exact only when the caller supplied it.
            error_known = (
                warm_start is None or step > 0 or baseline_error is not None
            )
        elif warm_start is not None:
            factors = factors_from_state(warm_start["factors"])
            init_index = int(warm_start.get("init_index", 0))
            if "rng_state" in warm_start:
                rng.bit_generator.state = warm_start["rng_state"]
            # The warm state's last recorded error is exact only for an
            # unchanged tensor, so without a caller's baseline the first
            # sweep seeds the error with a full-block scan.
            error_known = baseline_error is not None
            if baseline_error is None:
                baseline_error = int(warm_start["errors"][-1])
            errors = [int(baseline_error)]
            # All-clean delta: no column's decision can have moved, so the
            # warm factors are already a fixed point for this epoch —
            # converge at the baseline without dispatching a single stage.
            converged = dirty_columns is not None and not any(dirty_columns)
            scoped = dirty_columns is not None and not converged
            start_iteration = 1
            if manager is not None and (manager.should_save(0) or converged):
                manager.save(
                    0, _dbtf_state(factors, errors, converged, rng, init_index)
                )
            yield StepEvent(0, errors[-1], converged, phase="warm")
        else:
            # First iteration: try L initializations, keep the best
            # (lines 5-8).
            candidates = [
                _initial_factors(tensor, config, rng)
                for _ in range(config.n_initial_sets)
            ]
            best_factors, best_error, init_index = None, None, 0
            for index, candidate in enumerate(candidates):
                updated, error = _update_all_factors(
                    mode_rdds, candidate, config, runtime,
                    certificates=certificates,
                )
                if best_error is None or error < best_error:
                    best_factors, best_error, init_index = updated, error, index
            factors = best_factors

            errors = [best_error]
            error_known = True
            converged = False
            start_iteration = 1
            if manager is not None and manager.should_save(0):
                manager.save(
                    0, _dbtf_state(factors, errors, converged, rng, init_index)
                )
            yield StepEvent(0, errors[-1], converged, phase="init")

        threshold = config.tolerance * max(tensor.nnz, 1)
        for iteration in range(start_iteration, config.max_iterations):
            if converged:
                break
            # Each sweep starts from the exact error the last one ended at.
            error_before = errors[-1] if error_known else None
            if scoped and iteration == start_iteration:
                factors, scoped_error = _update_all_factors_scoped(
                    mode_rdds, factors, config, runtime, dirty_columns,
                    error_before, certificates,
                )
                # None means nothing was evaluated anywhere — impossible
                # here (an all-empty dirty set converged above), but the
                # baseline is the correct error for it regardless.
                error = errors[-1] if scoped_error is None else scoped_error
            else:
                factors, error = _update_all_factors(
                    mode_rdds, factors, config, runtime, error_before,
                    certificates,
                )
            error_known = True
            improvement = errors[-1] - error
            errors.append(error)
            if improvement <= threshold:
                converged = True
            if manager is not None and (
                manager.should_save(iteration) or converged
            ):
                manager.save(
                    iteration,
                    _dbtf_state(factors, errors, converged, rng, init_index),
                )
            yield StepEvent(iteration, error, converged)
            if converged:
                break
    finally:
        # Release the per-mode partition caches so a caller-supplied
        # runtime does not accumulate persisted unfoldings across runs —
        # also the cancellation path: ``generator.close()`` lands here.
        # Shared unfoldings belong to the epoch session, which keeps them
        # alive (and patched) across epochs.
        if owns_unfoldings:
            for rdd in mode_rdds:
                rdd.unpersist()

    return DecompositionResult(
        factors=factors,
        error=errors[-1],
        input_nnz=tensor.nnz,
        errors_per_iteration=tuple(errors),
        converged=converged,
        report=runtime.report(),
        config=config,
        state=_dbtf_state(factors, errors, converged, rng, init_index),
    )
