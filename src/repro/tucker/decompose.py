"""Boolean Tucker decomposition — the paper's natural extension.

The conference paper covers Boolean CP; its journal extension (and the
Walk'n'Merge line of work) generalizes to **Boolean Tucker**:

    x_ijk  ≈  OR over (p, q, r) of  g_pqr AND a_ip AND b_jq AND c_kr

with a binary core tensor **G** (R1 x R2 x R3) and binary factor matrices
A (I x R1), B (J x R2), C (K x R3).  CP is the special case of a
hyper-diagonal core.

The solver is the same alternating greedy scheme as DBTF's CP updates,
adapted to the Tucker structure:

* each factor matrix is updated column by column; component p's coverage
  slab ``Cov_p = (B ∘ G_p ∘ Cᵀ)`` is precomputed once per update, so a row
  entry's error delta only needs the newly covered cells;
* the core is updated entry by entry against the coverage *count* of all
  other core entries, so flipping ``g_pqr`` is an O(IJK) delta, not a full
  reconstruction.

This module is single-machine (an extension, not the paper's headline
algorithm) and works on dense Boolean arrays at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..bitops import BitMatrix
from ..core.steps import StepEvent, drive
from ..resilience import CheckpointConfig, CheckpointManager, config_fingerprint
from ..tensor import SparseBoolTensor

__all__ = [
    "BooleanTuckerConfig",
    "BooleanTuckerResult",
    "boolean_tucker",
    "boolean_tucker_steps",
    "tucker_reconstruct",
]


@dataclass(frozen=True)
class BooleanTuckerConfig:
    """Hyper-parameters of the Boolean Tucker solver.

    ``checkpoint`` snapshots at *iteration* granularity within each
    restart (the Tucker core update is the slowest loop in the repo), with
    the snapshot step encoded as ``restart * max_iterations + iteration``
    and the best completed-restart result carried along — so a killed
    sweep resumes mid-restart, bit-identically.
    """

    core_shape: tuple[int, int, int]
    max_iterations: int = 10
    tolerance: float = 0.0
    n_initial_sets: int = 1
    seed: int = 0
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        if len(self.core_shape) != 3 or any(r <= 0 for r in self.core_shape):
            raise ValueError(
                f"core_shape must be three positive sizes, got {self.core_shape}"
            )
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
class BooleanTuckerResult:
    """Outcome of a Boolean Tucker decomposition."""

    core: SparseBoolTensor
    factors: tuple[BitMatrix, BitMatrix, BitMatrix]
    error: int
    input_nnz: int
    errors_per_iteration: tuple[int, ...]
    converged: bool

    @property
    def relative_error(self) -> float:
        return self.error / self.input_nnz if self.input_nnz else float(self.error)

    @property
    def n_iterations(self) -> int:
        return len(self.errors_per_iteration)

    def reconstruct(self) -> SparseBoolTensor:
        factors_dense = tuple(factor.to_dense() for factor in self.factors)
        dense = _reconstruct_dense(self.core.to_dense(), factors_dense)
        return SparseBoolTensor.from_dense(dense)


def tucker_reconstruct(
    core: SparseBoolTensor, factors: tuple[BitMatrix, BitMatrix, BitMatrix]
) -> SparseBoolTensor:
    """Boolean Tucker reconstruction ``G ×₁ A ×₂ B ×₃ C``."""
    dense = _reconstruct_dense(
        core.to_dense(), tuple(factor.to_dense() for factor in factors)
    )
    return SparseBoolTensor.from_dense(dense)


def _reconstruct_dense(core: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Dense Boolean mode products; Boolean algebra is a semiring, so each
    mode product can clamp independently."""
    a, b, c = (factor.astype(np.int64) for factor in factors)
    stage = np.einsum("ip,pqr->iqr", a, core.astype(np.int64))
    stage = (stage > 0).astype(np.int64)
    stage = np.einsum("jq,iqr->ijr", b, stage)
    stage = (stage > 0).astype(np.int64)
    stage = np.einsum("kr,ijr->ijk", c, stage)
    return (stage > 0).astype(np.uint8)


def _coverage_slabs(
    core: np.ndarray, second: np.ndarray, third: np.ndarray
) -> np.ndarray:
    """Per-component coverage for the mode being updated.

    For mode 1 (updating A): slab p covers the (J, K) cells
    ``OR over (q, r) of g_pqr AND b_jq AND c_kr`` — computed as two Boolean
    matrix products per component.
    """
    r1 = core.shape[0]
    slabs = np.zeros((r1, second.shape[0], third.shape[0]), dtype=bool)
    second_int = second.astype(np.int64)
    third_int = third.astype(np.int64)
    for p in range(r1):
        middle = second_int @ core[p].astype(np.int64)  # (J, R3) counts
        slabs[p] = (middle.astype(bool).astype(np.int64) @ third_int.T) > 0
    return slabs


def _update_factor_dense(
    unfolded: np.ndarray, factor: np.ndarray, slabs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Greedy column-wise update of one factor given coverage slabs.

    ``unfolded`` is the tensor with the updated mode first, flattened to
    (n_rows, cells); ``slabs`` is (rank, cells) Boolean coverage per
    component.  Mirrors DBTF's Algorithm 4 on dense arrays.
    """
    n_rows, rank = factor.shape
    updated = factor.copy()
    error_after = 0
    for column in range(rank):
        cover_others = np.zeros_like(unfolded, dtype=bool)
        for component in range(rank):
            if component == column:
                continue
            users = updated[:, component].astype(bool)
            if users.any():
                cover_others[users] |= slabs[component]
        error_if_zero = (cover_others ^ unfolded).sum(axis=1)
        newly = slabs[column][None, :] & ~cover_others
        delta = newly.sum(axis=1) - 2 * (newly & unfolded).sum(axis=1)
        error_if_one = error_if_zero + delta
        updated[:, column] = (error_if_one < error_if_zero).astype(np.uint8)
        error_after = int(np.minimum(error_if_zero, error_if_one).sum())
    return updated, error_after


def _update_core(
    dense: np.ndarray,
    core: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, int]:
    """Greedy entry-wise core update against coverage counts.

    ``counts[i, j, k]`` is the number of active core entries covering a
    cell; removing one entry's block subtracts its indicator, so each flip
    is evaluated with a local delta instead of a fresh reconstruction.
    Entry ``(p, q, r)`` covers exactly the sub-box of the rows where
    ``a[:, p]``, ``b[:, q]`` and ``c[:, r]`` are set, so only that box is
    read and written.
    """
    a, b, c = (factor.astype(bool) for factor in factors)
    r1, r2, r3 = core.shape
    updated = core.copy()
    # Integer coverage counts under the current core.
    counts = np.einsum(
        "pqr,ip,jq,kr->ijk",
        updated.astype(np.int64), a.astype(np.int64),
        b.astype(np.int64), c.astype(np.int64),
        optimize=True,
    )
    tensor_bool = dense.astype(bool)
    rows = [
        [np.flatnonzero(factor[:, column]) for column in range(factor.shape[1])]
        for factor in (a, b, c)
    ]
    for p in range(r1):
        for q in range(r2):
            for r in range(r3):
                box = np.ix_(rows[0][p], rows[1][q], rows[2][r])
                active = int(updated[p, q, r])
                # Cells only this entry would cover: no other entry does.
                exclusive = counts[box] == active
                gain = int((exclusive & tensor_bool[box]).sum())
                cost = int(exclusive.sum()) - gain
                keep = gain > cost
                if keep != bool(active):
                    updated[p, q, r] = keep
                    counts[box] += 1 if keep else -1
    error = int(((counts > 0) ^ tensor_bool).sum())
    return updated, error


def _sampled_tucker_factors(
    tensor: SparseBoolTensor,
    config: BooleanTuckerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed factor columns from fibers through random nonzeros.

    The first ``min(core_shape)`` components share one anchor nonzero
    across all three modes, exactly like DBTF's CP initialization — paired
    with a hyper-diagonal initial core, each seeds a coherent rank-1 block.
    Any surplus columns (non-cubic cores) get independent anchors.
    """
    coords = tensor.coords
    factors = [
        np.zeros((tensor.shape[mode], config.core_shape[mode]), dtype=np.uint8)
        for mode in range(3)
    ]
    if tensor.nnz == 0:
        return tuple(factors)

    def fill_column(mode: int, column: int, anchor: np.ndarray) -> None:
        others = [m for m in range(3) if m != mode]
        mask = (coords[:, others[0]] == anchor[others[0]]) & (
            coords[:, others[1]] == anchor[others[1]]
        )
        factors[mode][coords[mask][:, mode], column] = 1

    shared = min(config.core_shape)
    for r in range(shared):
        anchor = coords[int(rng.integers(0, tensor.nnz))]
        for mode in range(3):
            fill_column(mode, r, anchor)
    for mode in range(3):
        for r in range(shared, config.core_shape[mode]):
            anchor = coords[int(rng.integers(0, tensor.nnz))]
            fill_column(mode, r, anchor)
    return tuple(factors)


def boolean_tucker(
    tensor: SparseBoolTensor,
    core_shape: tuple[int, int, int] | None = None,
    config: BooleanTuckerConfig | None = None,
) -> BooleanTuckerResult:
    """Boolean Tucker decomposition of a three-way binary tensor.

    Parameters
    ----------
    tensor:
        The binary input tensor.
    core_shape:
        Core sizes ``(R1, R2, R3)`` (ignored when ``config`` is given).
    config:
        Full configuration.

    Returns
    -------
    BooleanTuckerResult
        Binary core, binary factors, and the error trace.
    """
    if config is None:
        if core_shape is None:
            raise ValueError("either core_shape or config must be provided")
        config = BooleanTuckerConfig(core_shape=core_shape)
    return drive(boolean_tucker_steps(tensor, config))


def boolean_tucker_steps(
    tensor: SparseBoolTensor,
    config: BooleanTuckerConfig,
) -> Generator[StepEvent, None, BooleanTuckerResult]:
    """Cooperatively-stepped Boolean Tucker: one iteration per ``next()``.

    Yields a :class:`~repro.core.steps.StepEvent` after every alternating
    iteration of every restart — the solver's checkpoint boundary, with the
    step encoded as ``restart * max_iterations + iteration`` exactly like
    the snapshot filenames — so a consumer may cancel mid-restart and a
    resumed run continues bit-identically.  Draining the generator is
    :func:`boolean_tucker`.
    """
    if tensor.ndim != 3:
        raise ValueError(
            f"Boolean Tucker factorizes three-way tensors, got {tensor.ndim}-way"
        )

    manager = None
    if config.checkpoint is not None:
        manager = CheckpointManager(
            config.checkpoint, _tucker_fingerprint(tensor, config)
        )

    dense = tensor.to_dense()
    best: BooleanTuckerResult | None = None
    start_restart = 0
    resume_state = None
    if manager is not None and config.checkpoint.resume:
        loaded = manager.load_latest()
        if loaded is not None:
            _step, state = loaded
            best = state["best"]
            start_restart = int(state["restart"])
            resume_state = state
    for restart in range(start_restart, config.n_initial_sets):
        rng = np.random.default_rng(config.seed + restart)
        save_fn = None
        if manager is not None:
            save_fn = _make_tucker_saver(manager, config, restart, best)
        solver = _solve_steps(
            tensor, dense, config, rng, save_fn=save_fn, resume=resume_state
        )
        candidate = None
        while candidate is None:
            try:
                iteration, error, restart_converged = next(solver)
            except StopIteration as stop:
                candidate = stop.value
                break
            yield StepEvent(
                restart * config.max_iterations + iteration,
                error,
                restart_converged,
            )
        resume_state = None
        if best is None or candidate.error < best.error:
            best = candidate
    return best


def _tucker_fingerprint(
    tensor: SparseBoolTensor, config: BooleanTuckerConfig
) -> str:
    """Fingerprint of everything shaping the Tucker trajectory.

    ``max_iterations`` is included (the snapshot step encoding depends on
    it) along with everything that would change the alternating updates.
    """
    return config_fingerprint(
        {
            "algorithm": "boolean_tucker",
            "core_shape": list(config.core_shape),
            "seed": config.seed,
            "n_initial_sets": config.n_initial_sets,
            "max_iterations": config.max_iterations,
            "tolerance": config.tolerance,
            "shape": list(tensor.shape),
            "nnz": tensor.nnz,
        }
    )


def _make_tucker_saver(
    manager: CheckpointManager,
    config: BooleanTuckerConfig,
    restart: int,
    best: "BooleanTuckerResult | None",
):
    """Bind one restart's snapshot writer for :func:`_solve_steps`."""

    def save(iteration, core, factors, errors, converged):
        if not (manager.should_save(iteration) or converged):
            return
        manager.save(
            restart * config.max_iterations + iteration,
            {
                "restart": restart,
                "iteration": iteration,
                "core": core.copy(),
                "factors": tuple(factor.copy() for factor in factors),
                "errors": list(errors),
                "converged": converged,
                "best": best,
            },
        )

    return save


def _solve_steps(
    tensor: SparseBoolTensor,
    dense: np.ndarray,
    config: BooleanTuckerConfig,
    rng: np.random.Generator,
    save_fn=None,
    resume: "dict | None" = None,
) -> "Generator[tuple[int, int, bool], None, BooleanTuckerResult]":
    """One alternating-minimization run from one initialization.

    Yields ``(iteration, error, converged)`` after each iteration — after
    ``save_fn`` has snapshotted it — and returns the restart's result.

    ``resume`` is a checkpoint state for *this* restart: initialization is
    skipped (its rng draws already happened before the snapshot) and the
    loop continues from the saved iteration's core/factors/errors.
    """
    if resume is not None:
        core = np.array(resume["core"], dtype=np.uint8)
        factors = tuple(
            np.array(factor, dtype=np.uint8) for factor in resume["factors"]
        )
        errors = list(resume["errors"])
        converged = bool(resume["converged"])
        start_iteration = int(resume["iteration"]) + 1
    else:
        factors = _sampled_tucker_factors(tensor, config, rng)
        # Hyper-diagonal initial core: component r glues the three fiber
        # columns seeded from the same anchor (the CP special case).
        core = np.zeros(config.core_shape, dtype=np.uint8)
        for r in range(min(config.core_shape)):
            core[r, r, r] = 1
        errors = []
        converged = False
        start_iteration = 0

    threshold = config.tolerance * max(tensor.nnz, 1)
    for iteration in range(start_iteration, config.max_iterations):
        if converged:
            break
        # Mode 1: rows are i, cells are (j, k) flattened.
        slabs = _coverage_slabs(core, factors[1], factors[2])
        new_a, error = _update_factor_dense(
            dense.reshape(dense.shape[0], -1),
            factors[0],
            slabs.reshape(slabs.shape[0], -1),
        )
        factors = (new_a, factors[1], factors[2])
        # Mode 2: permute so j comes first; core modes follow the same
        # permutation (q, p, r).
        slabs = _coverage_slabs(core.transpose(1, 0, 2), factors[0], factors[2])
        new_b, error = _update_factor_dense(
            dense.transpose(1, 0, 2).reshape(dense.shape[1], -1),
            factors[1],
            slabs.reshape(slabs.shape[0], -1),
        )
        factors = (factors[0], new_b, factors[2])
        # Mode 3: permutation (r, p, q).
        slabs = _coverage_slabs(core.transpose(2, 0, 1), factors[0], factors[1])
        new_c, error = _update_factor_dense(
            dense.transpose(2, 0, 1).reshape(dense.shape[2], -1),
            factors[2],
            slabs.reshape(slabs.shape[0], -1),
        )
        factors = (factors[0], factors[1], new_c)
        # Core last: with refreshed factors it can recruit off-diagonal
        # entries (the structure CP cannot express).
        core, error = _update_core(dense, core, factors)

        if errors and errors[-1] - error <= threshold:
            converged = True
        errors.append(error)
        if save_fn is not None:
            save_fn(iteration, core, factors, errors, converged)
        yield iteration, error, converged
        if converged:
            break

    return BooleanTuckerResult(
        core=SparseBoolTensor.from_dense(core),
        factors=tuple(BitMatrix.from_dense(factor) for factor in factors),
        error=errors[-1],
        input_nnz=tensor.nnz,
        errors_per_iteration=tuple(errors),
        converged=converged,
    )
