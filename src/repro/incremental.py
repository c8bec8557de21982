"""Incremental epoch-evolving factorization: advance, don't recompute.

A :class:`FactorizationSession` factorizes a tensor once, then *advances*
the factorization through a stream of :class:`~repro.tensor.TensorDelta`\\ s
instead of re-running DBTF from scratch on every snapshot:

* the delta's cells are **written into the cached slabs in place**, on
  the workers that hold them (O(|Δ|) shipped bytes against the O(|X|)
  rebuild — :class:`~repro.core.PartitionedUnfoldings`);
* the solver **warm-starts** from the previous epoch's factors, RNG state,
  and error trace (the checkpoint-format carrier on
  ``DecompositionResult.state``);
* the first warm iteration only re-sweeps the factor columns whose
  Khatri-Rao support rectangles intersect the delta's touched fibers
  (:func:`~repro.core.dirty_columns_for_delta`), escalating to full sweeps
  the moment any column's decision actually moves — so quiet deltas cost a
  handful of column evaluations while adversarial ones degrade gracefully
  to exactly the batch trajectory;
* every update skips the (row, column) pairs whose last decision was
  "keep" and whose slack — how far their error change was from the
  decision's boundary, less 2 per changed cell in their support
  rectangle — is not used up (:class:`~repro.core.DecisionCertificates`),
  so a round evaluates only the rows whose slack the delta drained or a
  flip touched — with the same result.

Example::

    from repro import DbtfConfig, FactorizationSession
    from repro.tensor import TensorDelta

    session = FactorizationSession(tensor, DbtfConfig(rank=8, seed=0))
    with session:
        first = session.factorize()          # epoch 0: batch DBTF
        for delta in deltas:                 # epochs 1..T: advance
            epoch = session.advance(delta)
            print(epoch.epoch, epoch.result.error, epoch.columns_swept)

With a ``checkpoint_root``, every epoch snapshots into its own
``epoch-%04d`` subdirectory (a delta changes the tensor, hence the
checkpoint fingerprint, so epochs cannot share one directory); replaying
the same delta stream after a crash fast-forwards through completed epochs
via their converged snapshots, and stale epoch directories are pruned so at
most ``keep_last`` epochs of snapshots ever sit on disk.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Generator, Iterable

from .core import (
    DbtfConfig,
    DecompositionResult,
    PartitionedUnfoldings,
    baseline_error_after_delta,
    dbtf_steps,
    dirty_columns_for_delta,
    drive,
)
from .core.steps import StepEvent
from .distengine import SimulatedRuntime
from .resilience import CheckpointConfig
from .tensor import SparseBoolTensor, TensorDelta

__all__ = ["EpochResult", "SessionResult", "FactorizationSession"]

_EPOCH_DIR_FORMAT = "epoch-{:04d}"


@dataclass(frozen=True)
class EpochResult:
    """One epoch's outcome plus its incremental-work accounting.

    Attributes
    ----------
    epoch:
        Epoch index; 0 is the initial batch factorization.
    result:
        The solver result — factors, error trace, engine report, and the
        warm-start ``state`` the next epoch consumed.
    n_changes:
        Cells the epoch's delta flipped (0 for epoch 0).
    dirty_columns:
        Per-mode counts of columns the delta could have moved (all 0 for
        epoch 0 — the batch path sweeps everything unconditionally).
    columns_swept / columns_skipped:
        Scoped-sweep column evaluations performed / skipped during this
        epoch (deltas of the runtime's incremental counters; both 0 for
        epoch 0 and for any escalated full sweep, which runs on the
        unmetered batch path).
    """

    epoch: int
    result: DecompositionResult
    n_changes: int = 0
    dirty_columns: tuple[int, int, int] = (0, 0, 0)
    columns_swept: int = 0
    columns_skipped: int = 0

    @property
    def error(self) -> int:
        return self.result.error

    @property
    def converged(self) -> bool:
        return self.result.converged


@dataclass(frozen=True)
class SessionResult:
    """A whole epoch stream's outcomes, as returned by the service path."""

    epochs: tuple[EpochResult, ...]

    @property
    def final(self) -> EpochResult:
        return self.epochs[-1]

    @property
    def error(self) -> int:
        return self.final.error

    @property
    def converged(self) -> bool:
        return self.final.converged

    @property
    def errors_per_epoch(self) -> tuple[int, ...]:
        return tuple(epoch.error for epoch in self.epochs)


class FactorizationSession:
    """A DBTF factorization advanced delta by delta over one live runtime.

    The session owns what batch runs rebuild every time: the partitioned,
    cached unfoldings (patched per epoch, never rebuilt) with their
    decision certificates, the warm-start state chain, and — when
    ``checkpoint_root`` is given — the per-epoch checkpoint directories.

    Parameters
    ----------
    tensor:
        The epoch-0 tensor; :meth:`advance` evolves the session's copy via
        ``apply_delta``, so ``session.tensor`` always reflects the current
        epoch.
    config:
        Solver configuration.  Must not carry its own ``checkpoint`` —
        the session derives a per-epoch checkpoint config from
        ``checkpoint_root`` instead (every epoch factorizes a different
        tensor, hence a different checkpoint fingerprint).
    runtime:
        Optional caller-owned runtime (e.g. a service lease); one is built
        from the config and closed with the session otherwise.
    checkpoint_root:
        Directory under which epoch ``e`` snapshots into ``epoch-%04d``.
        ``None`` disables checkpointing.
    checkpoint_every / keep_last:
        Snapshot cadence within an epoch, and how many *epoch directories*
        (and snapshots within each) are retained — advancing to epoch
        ``e`` prunes directories below ``e - keep_last + 1``.
    """

    def __init__(
        self,
        tensor: SparseBoolTensor,
        config: DbtfConfig,
        runtime: "SimulatedRuntime | None" = None,
        *,
        checkpoint_root: "str | Path | None" = None,
        checkpoint_every: int = 1,
        keep_last: int = 2,
    ):
        if tensor.ndim != 3:
            raise ValueError(
                f"incremental sessions factorize three-way tensors, got "
                f"{tensor.ndim}-way"
            )
        if config.checkpoint is not None:
            raise ValueError(
                "config.checkpoint must be None — the session manages "
                "per-epoch checkpoint directories via checkpoint_root"
            )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.tensor = tensor
        self.config = config
        self._owns_runtime = runtime is None
        self.runtime = (
            runtime
            if runtime is not None
            else SimulatedRuntime(config.cluster)
        )
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.keep_last = keep_last
        self._unfoldings: "PartitionedUnfoldings | None" = None
        self._state: "dict | None" = None
        self.history: list[EpochResult] = []
        self.closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Index of the last completed epoch (-1 before :meth:`factorize`)."""
        return len(self.history) - 1

    def factorize(self) -> EpochResult:
        """Run epoch 0: the ordinary batch factorization of ``tensor``."""
        self._check_open()
        if self.history:
            raise RuntimeError(
                "epoch 0 already ran; use advance(delta) to continue"
            )
        return drive(self._epoch_steps(0, None))

    def advance(self, delta: TensorDelta) -> EpochResult:
        """Apply one delta and bring the factorization up to date.

        Writes the delta into the cached slabs in place (charging the
        decision certificates its cells can move), computes the
        dirty-column sets and the warm factors' exact baseline error on the
        new tensor, and warm-starts the solver with the certificates — all
        falling back to full sweeps the moment a scoped column actually
        changes.
        """
        self._check_open()
        if not self.history:
            raise RuntimeError("call factorize() before advance(delta)")
        return drive(self._epoch_steps(len(self.history), delta))

    def run(
        self, deltas: "Iterable[TensorDelta]"
    ) -> SessionResult:
        """Epoch 0 plus one epoch per delta, in order."""
        return drive(self.steps(deltas))

    def steps(
        self, deltas: "Iterable[TensorDelta]"
    ) -> Generator[StepEvent, None, SessionResult]:
        """The whole epoch stream as one cooperative step generator.

        This is the service-facing shape: every solver iteration of every
        epoch yields, so a scheduler can interleave an epochs job with its
        peers and preempt it at any checkpoint boundary; replaying the
        stream after a kill fast-forwards through completed epochs via
        their converged snapshots.  Closing the generator (or finishing)
        releases the session's cached unfoldings — the runtime lease stays
        the caller's to manage.
        """
        self._check_open()
        if self.history:
            raise RuntimeError(
                "steps() replays a whole stream and needs a fresh session"
            )
        try:
            yield from self._epoch_steps(0, None)
            for index, delta in enumerate(deltas, start=1):
                yield from self._epoch_steps(index, delta)
            return SessionResult(epochs=tuple(self.history))
        finally:
            self._release_unfoldings()

    def close(self) -> None:
        """Release cached unfoldings and, when owned, the runtime."""
        if self.closed:
            return
        self.closed = True
        self._release_unfoldings()
        if self._owns_runtime:
            self.runtime.close()

    def __enter__(self) -> "FactorizationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Epoch internals
    # ------------------------------------------------------------------
    def _epoch_steps(
        self, epoch: int, delta: "TensorDelta | None"
    ) -> Generator[StepEvent, None, EpochResult]:
        if self._unfoldings is None:
            self._unfoldings = PartitionedUnfoldings.prepare(
                self.tensor,
                self.config.resolved_partitions(self.runtime.config),
                self.runtime,
            )
        config = self._epoch_config(epoch)
        swept_before, skipped_before = self._sweep_counters()
        if delta is None:
            n_changes = 0
            dirty_counts = (0, 0, 0)
            result = yield from dbtf_steps(
                self.tensor,
                config,
                self.runtime,
                shared_unfoldings=self._unfoldings.rdds,
                certificates=self._unfoldings.certificates,
            )
        else:
            warm = self._state
            if warm is None:
                raise RuntimeError(
                    "no warm-start state recorded — the previous epoch's "
                    "solver did not export one"
                )
            self.tensor = self.tensor.apply_delta(delta)
            self._unfoldings.patch(delta)
            # The warm state's factors, unpacked once for both.
            warm_factors = [
                factor.to_dense() for factor in self.history[-1].result.factors
            ]
            dirty = dirty_columns_for_delta(delta, warm_factors)
            baseline = baseline_error_after_delta(
                int(warm["errors"][-1]), delta, warm_factors
            )
            n_changes = delta.n_changes
            dirty_counts = tuple(len(columns) for columns in dirty)
            result = yield from dbtf_steps(
                self.tensor,
                config,
                self.runtime,
                warm_start=warm,
                shared_unfoldings=self._unfoldings.rdds,
                dirty_columns=dirty,
                baseline_error=baseline,
                certificates=self._unfoldings.certificates,
            )
        self._state = result.state
        swept_after, skipped_after = self._sweep_counters()
        epoch_result = EpochResult(
            epoch=epoch,
            result=result,
            n_changes=n_changes,
            dirty_columns=dirty_counts,
            columns_swept=int(swept_after - swept_before),
            columns_skipped=int(skipped_after - skipped_before),
        )
        self.history.append(epoch_result)
        self._prune_epoch_dirs(epoch)
        return epoch_result

    def _epoch_config(self, epoch: int) -> DbtfConfig:
        if self.checkpoint_root is None:
            return self.config
        checkpoint = CheckpointConfig(
            directory=self.checkpoint_root / _EPOCH_DIR_FORMAT.format(epoch),
            every=self.checkpoint_every,
            keep_last=self.keep_last,
            resume=True,
        )
        return replace(self.config, checkpoint=checkpoint)

    def _prune_epoch_dirs(self, completed_epoch: int) -> None:
        """Drop epoch directories older than the retention window.

        Without this, an epoch stream leaks one checkpoint directory per
        epoch forever (each epoch's tensor fingerprint differs, so the
        in-epoch ``keep_last`` pruning never crosses directories).
        """
        if self.checkpoint_root is None or not self.checkpoint_root.exists():
            return
        floor = completed_epoch - self.keep_last + 1
        if floor <= 0:
            return
        for path in sorted(self.checkpoint_root.glob("epoch-*")):
            try:
                index = int(path.name.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if index < floor:
                shutil.rmtree(path, ignore_errors=True)

    def _sweep_counters(self) -> tuple[float, float]:
        value = self.runtime.metrics.value
        return (
            value("incremental_columns_swept_total"),
            value("incremental_columns_skipped_total"),
        )

    def _release_unfoldings(self) -> None:
        if self._unfoldings is not None:
            self._unfoldings.unpersist()
            self._unfoldings = None

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("FactorizationSession is closed")

    def __repr__(self) -> str:
        return (
            f"FactorizationSession(epoch={self.epoch}, "
            f"shape={tuple(self.tensor.shape)}, nnz={self.tensor.nnz}, "
            f"closed={self.closed})"
        )
