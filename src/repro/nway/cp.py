"""Boolean CP decomposition of N-way tensors.

The paper defines Boolean tensors and CP for arbitrary order (Sec. II) but
DBTF itself — its partitioning and caching — is specialized to three ways.
This module supplies the general case with the same greedy alternating
scheme on bit-packed rows: for mode n, the unfolding's row i is compared
against the Boolean sum of the *coverage rows* of the components selected
by ``factor_n[i, :]``, where component r's coverage row is the outer
product of every other factor's column r, flattened to match the unfolding.

Single-machine and dense-unfolding based: intended for the moderate sizes
where an N-way analysis is run interactively, not for DBTF-scale data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Generator

import numpy as np

from ..bitops import BitMatrix, packing
from ..core.steps import StepEvent, drive
from ..distengine import DEFAULT_CLUSTER, ClusterConfig, SimulatedRuntime
from ..resilience import CheckpointConfig, CheckpointManager, config_fingerprint
from ..tensor import SparseBoolTensor

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..observability import MetricsRegistry, Tracer

__all__ = [
    "NwayCpConfig",
    "NwayCpResult",
    "cp_nway",
    "cp_nway_steps",
    "nway_reconstruct",
]


@dataclass(frozen=True)
class NwayCpConfig:
    """Hyper-parameters of the N-way Boolean CP solver.

    ``cluster`` says how the independent restarts (``n_initial_sets``)
    execute: its backend and worker count parallelize them across the
    stage-executor seam, and the selected best result is identical under
    every backend.

    ``checkpoint`` snapshots at *restart* granularity: every completed
    restart's candidate is persisted, so a killed multi-restart sweep
    resumes with only the interrupted restart re-solved.  Checkpointed
    runs always solve restarts sequentially (a parallel stage has no
    restart boundaries to snapshot at); the candidate set is identical
    either way.
    """

    rank: int
    max_iterations: int = 10
    tolerance: float = 0.0
    n_initial_sets: int = 1
    seed: int = 0
    cluster: ClusterConfig = DEFAULT_CLUSTER
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.n_initial_sets <= 0:
            raise ValueError(
                f"n_initial_sets must be positive, got {self.n_initial_sets}"
            )


@dataclass(frozen=True)
class NwayCpResult:
    """Outcome of an N-way Boolean CP decomposition."""

    factors: tuple[BitMatrix, ...]
    error: int
    input_nnz: int
    errors_per_iteration: tuple[int, ...]
    converged: bool

    @property
    def rank(self) -> int:
        return self.factors[0].n_cols if self.factors else 0

    @property
    def relative_error(self) -> float:
        return self.error / self.input_nnz if self.input_nnz else float(self.error)

    @property
    def n_iterations(self) -> int:
        return len(self.errors_per_iteration)

    def reconstruct(self) -> SparseBoolTensor:
        return nway_reconstruct(self.factors)


def nway_reconstruct(factors: tuple[BitMatrix, ...]) -> SparseBoolTensor:
    """Boolean sum of rank-1 tensors from N factor matrices (Eq. 10)."""
    if not factors:
        raise ValueError("at least one factor matrix required")
    ranks = {factor.n_cols for factor in factors}
    if len(ranks) != 1:
        raise ValueError(
            f"factor matrices disagree on rank: {[f.shape for f in factors]}"
        )
    shape = tuple(factor.n_rows for factor in factors)
    rank = ranks.pop()
    pieces = []
    for r in range(rank):
        columns = [factor.column(r).astype(bool) for factor in factors]
        supports = [np.flatnonzero(column) for column in columns]
        if any(support.size == 0 for support in supports):
            continue
        grid = np.meshgrid(*supports, indexing="ij")
        pieces.append(np.stack([axis.ravel() for axis in grid], axis=1))
    if not pieces:
        return SparseBoolTensor(shape)
    return SparseBoolTensor(shape, np.concatenate(pieces, axis=0))


def _coverage_rows(factors: list[np.ndarray], mode: int, rank: int) -> np.ndarray:
    """Packed coverage row per component for the mode being updated.

    Component r covers, within the mode-n unfolding, the outer product of
    every other factor's column r — flattened in the same C order as
    ``moveaxis(dense, mode, 0).reshape(rows, -1)``.
    """
    others = [factors[m] for m in range(len(factors)) if m != mode]
    width = int(np.prod([other.shape[0] for other in others])) if others else 1
    rows = np.zeros((rank, width), dtype=np.uint8)
    for r in range(rank):
        coverage = reduce(
            lambda acc, other: np.multiply.outer(acc, other[:, r].astype(bool)),
            others,
            np.array(True),
        )
        rows[r] = np.asarray(coverage, dtype=np.uint8).ravel()
    return packing.pack_bits(rows)


def _update_mode(
    unfolded_words: np.ndarray,
    factor: np.ndarray,
    coverage_words: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Greedy column-wise update of one factor (the 3-way Algorithm 4,
    generalized): per column, per row, keep the candidate value with the
    smaller error against the packed unfolding."""
    n_rows, rank = factor.shape
    n_words = unfolded_words.shape[1]
    updated = factor.copy()
    error_after = 0
    for column in range(rank):
        cover_others = np.zeros((n_rows, n_words), dtype=np.uint64)
        for component in range(rank):
            if component == column:
                continue
            users = updated[:, component].astype(bool)
            if users.any():
                cover_others[users] |= coverage_words[component]
        error_if_zero = packing.popcount_rows(unfolded_words ^ cover_others)
        newly = coverage_words[column][None, :] & ~cover_others
        delta = packing.popcount_rows(newly) - 2 * packing.popcount_rows(
            newly & unfolded_words
        )
        error_if_one = error_if_zero + delta
        updated[:, column] = (error_if_one < error_if_zero).astype(np.uint8)
        error_after = int(np.minimum(error_if_zero, error_if_one).sum())
    return updated, error_after


def _sampled_nway_factors(
    tensor: SparseBoolTensor, rank: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Fiber-sampling initialization, generalized to N modes.

    As in the three-way driver, each component's anchor nonzero is drawn
    from the cells not yet covered by earlier components' seed blocks, so
    the initial components spread across the tensor's support.
    """
    factors = [
        np.zeros((dimension, rank), dtype=np.uint8) for dimension in tensor.shape
    ]
    if tensor.nnz == 0:
        return factors
    coords = tensor.coords
    covered = np.zeros(tensor.nnz, dtype=bool)
    for r in range(rank):
        candidates = np.flatnonzero(~covered)
        if candidates.size == 0:
            candidates = np.arange(tensor.nnz)
        anchor = coords[int(candidates[rng.integers(0, candidates.size)])]
        fibers = []
        for mode in range(tensor.ndim):
            others = [m for m in range(tensor.ndim) if m != mode]
            mask = np.ones(tensor.nnz, dtype=bool)
            for other in others:
                mask &= coords[:, other] == anchor[other]
            fiber = coords[mask][:, mode]
            fibers.append(fiber)
            factors[mode][fiber, r] = 1
        block_mask = np.ones(tensor.nnz, dtype=bool)
        for mode, fiber in enumerate(fibers):
            block_mask &= np.isin(coords[:, mode], fiber)
        covered |= block_mask
    return factors


def cp_nway(
    tensor: SparseBoolTensor,
    rank: int | None = None,
    config: NwayCpConfig | None = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> NwayCpResult:
    """Boolean CP decomposition of an N-way binary tensor (N >= 2).

    Parameters
    ----------
    tensor:
        The binary input tensor, any number of modes >= 2.
    rank:
        Number of components (ignored when ``config`` is given).
    config:
        Full configuration.
    tracer:
        Optional :class:`~repro.observability.Tracer`; when given, the
        restart stage runs through the stage-executor seam with per-task
        span collection, exactly like the distributed engine's stages.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` the restart
        stage reports ``stages_total``/``tasks_total`` and worker-side
        metric increments into.
    """
    if tensor.ndim < 2:
        raise ValueError(f"cp_nway needs at least 2 modes, got {tensor.ndim}")
    if config is None:
        if rank is None:
            raise ValueError("either rank or config must be provided")
        config = NwayCpConfig(rank=rank)

    if config.checkpoint is not None:
        return drive(
            cp_nway_steps(tensor, config, tracer=tracer, metrics=metrics)
        )
    candidates = _solve_restarts(
        tensor, _packed_unfoldings(tensor), config, tracer=tracer,
        metrics=metrics,
    )
    best: NwayCpResult | None = None
    for candidate in candidates:
        if best is None or candidate.error < best.error:
            best = candidate
    return best


def _packed_unfoldings(tensor: SparseBoolTensor) -> list[np.ndarray]:
    """Bit-packed mode-n unfoldings of a (dense-able) tensor."""
    dense = tensor.to_dense()
    return [
        packing.pack_bits(
            np.moveaxis(dense, mode, 0).reshape(tensor.shape[mode], -1)
        )
        for mode in range(tensor.ndim)
    ]


def cp_nway_steps(
    tensor: SparseBoolTensor,
    config: NwayCpConfig,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> "Generator[StepEvent, None, NwayCpResult]":
    """Cooperatively-stepped N-way CP: one restart per ``next()``.

    Restarts are this solver's checkpointable unit (see
    :class:`NwayCpConfig`): the sweep runs sequentially, every completed
    restart's candidate list is snapshotted when checkpointing is
    configured, and a :class:`~repro.core.steps.StepEvent` is yielded after
    each restart with the best error so far.  Draining the generator
    matches :func:`cp_nway` with a checkpoint config bit-for-bit; each
    restart still derives its generator from ``seed + restart``, so the
    candidate set is identical to the parallel fan-out too.
    """
    if tensor.ndim < 2:
        raise ValueError(f"cp_nway needs at least 2 modes, got {tensor.ndim}")
    unfoldings = _packed_unfoldings(tensor)
    manager = None
    if config.checkpoint is not None:
        manager = CheckpointManager(
            config.checkpoint,
            _nway_fingerprint(tensor, config),
            metrics=metrics,
            tracer=tracer,
        )
    candidates: list[NwayCpResult] = []
    start = 0
    if manager is not None and config.checkpoint.resume:
        loaded = manager.load_latest()
        if loaded is not None:
            step, state = loaded
            candidates = list(state["candidates"])
            start = step + 1
    last = config.n_initial_sets - 1
    for restart in range(start, config.n_initial_sets):
        candidates.append(
            _solve_once(
                tensor, unfoldings, config,
                np.random.default_rng(config.seed + restart),
            )
        )
        if manager is not None and (manager.should_save(restart) or restart == last):
            manager.save(restart, {"candidates": list(candidates)})
        yield StepEvent(
            restart,
            min(candidate.error for candidate in candidates),
            restart == last,
            phase="restart",
        )
    best: NwayCpResult | None = None
    for candidate in candidates:
        if best is None or candidate.error < best.error:
            best = candidate
    return best


class _RestartTaskFromHandle:
    """Stage payload: restart solves referencing one problem broadcast.

    The handle resolves to ``(tensor, unfoldings)`` worker-side, so each
    of the N restart tasks ships ~32 bytes of problem data instead of the
    full tensor plus every packed unfolding.  Each restart derives its
    generator from ``seed + restart`` (the same rule as the sequential
    path), so the candidate set — and therefore the selected best — is
    identical under every backend.
    """

    __slots__ = ("problem", "config")

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config

    def __call__(self, _index: int, restarts: list[int]) -> list["NwayCpResult"]:
        tensor, unfoldings = self.problem.value
        return [
            _solve_once(
                tensor,
                unfoldings,
                self.config,
                np.random.default_rng(self.config.seed + restart),
            )
            for restart in restarts
        ]


def _solve_restarts(
    tensor: SparseBoolTensor,
    unfoldings: list[np.ndarray],
    config: NwayCpConfig,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> list["NwayCpResult"]:
    """All initial-set candidates, in restart order.

    With a parallel backend and more than one restart, the independent
    solves run concurrently (one task per restart) through the same
    stage-executor seam the distributed engine uses.  With a tracer or a
    metrics registry attached, the stage always goes through the backend so
    the observability payloads are collected regardless of backend choice.
    """
    restarts = list(range(config.n_initial_sets))
    observing = tracer is not None or metrics is not None
    if not observing and (
        config.cluster.backend == "serial" or config.n_initial_sets == 1
    ):
        return [
            _solve_once(
                tensor, unfoldings, config, np.random.default_rng(config.seed + r)
            )
            for r in restarts
        ]
    # Route the restart fan-out through the distributed engine's lazy API:
    # one partition per restart, one ``cpNway.restarts`` stage at the glom
    # barrier.  The runtime handles what the manual backend call used to —
    # stage/task counters, worker metric-delta merging, and span grafting —
    # on the caller's registries.
    with SimulatedRuntime(
        config.cluster, tracer=tracer, metrics=metrics
    ) as runtime:
        problem = runtime.broadcast(
            (tensor, unfoldings), name="cpNway.broadcast"
        )
        task = _RestartTaskFromHandle(problem, config)
        partitions = (
            runtime.from_partitions([[r] for r in restarts], name="cpNway")
            .map_partitions_with_index(task, name="cpNway.restarts")
            .glom()
        )
    return [candidate for partition in partitions for candidate in partition]


def _nway_fingerprint(tensor: SparseBoolTensor, config: NwayCpConfig) -> str:
    """Fingerprint of everything shaping the restart candidates.

    Unlike the dbtf fingerprint, ``max_iterations``/``tolerance`` are
    *included*: resume granularity is whole restarts, and a completed
    restart solved under a different iteration budget is a different
    candidate.  The cluster is excluded — how restarts execute never
    changes results.
    """
    return config_fingerprint(
        {
            "algorithm": "cp_nway",
            "rank": config.rank,
            "seed": config.seed,
            "n_initial_sets": config.n_initial_sets,
            "max_iterations": config.max_iterations,
            "tolerance": config.tolerance,
            "shape": list(tensor.shape),
            "nnz": tensor.nnz,
        }
    )


def _solve_once(
    tensor: SparseBoolTensor,
    unfoldings: list[np.ndarray],
    config: NwayCpConfig,
    rng: np.random.Generator,
) -> NwayCpResult:
    factors = _sampled_nway_factors(tensor, config.rank, rng)
    errors: list[int] = []
    converged = False
    threshold = config.tolerance * max(tensor.nnz, 1)
    error = tensor.nnz
    for _ in range(config.max_iterations):
        for mode in range(tensor.ndim):
            coverage = _coverage_rows(factors, mode, config.rank)
            factors[mode], error = _update_mode(
                unfoldings[mode], factors[mode], coverage
            )
        if errors and errors[-1] - error <= threshold:
            errors.append(error)
            converged = True
            break
        errors.append(error)
    return NwayCpResult(
        factors=tuple(BitMatrix.from_dense(factor) for factor in factors),
        error=errors[-1],
        input_nnz=tensor.nnz,
        errors_per_iteration=tuple(errors),
        converged=converged,
    )
