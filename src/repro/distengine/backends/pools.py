"""Parallel backends over :mod:`concurrent.futures` worker pools.

Both backends submit one :func:`~repro.distengine.backends.base.execute_task`
call per partition and gather outcomes in submission order, so results are
deterministic regardless of which worker finishes first.  The pool is
created lazily on the first stage and reused for the rest of the
decomposition (mirroring Spark executors, which live for the whole job);
``close()`` shuts it down.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

from ..faults import FaultInjector
from .base import Backend, StageResult, TaskFn, execute_task

__all__ = ["ThreadBackend", "ProcessBackend"]


class _PoolBackend(Backend):
    """Shared submit/gather logic for the thread and process pools."""

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers
        self._executor: Executor | None = None

    def _effective_workers(self) -> int:
        return self.n_workers or os.cpu_count() or 1

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def run_stage(
        self,
        stage_name: str,
        task_fn: TaskFn,
        indexed_partitions: Sequence[tuple[int, list]],
        fault_injector: FaultInjector | None = None,
        collect_trace: bool = False,
        retry_policy=None,
    ) -> StageResult:
        futures = [
            self.executor.submit(
                execute_task, task_fn, stage_name, index, items,
                fault_injector, collect_trace, retry_policy,
            )
            for index, items in indexed_partitions
        ]
        try:
            outcomes = [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return StageResult.from_outcomes(outcomes)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ThreadBackend(_PoolBackend):
    """Tasks run concurrently on a thread pool.

    Real parallelism only where the kernels release the GIL (numpy's
    element-wise ops on large arrays do), but task payloads need not be
    picklable and nothing is copied between workers — the cheap way to
    overlap the engine's numpy-heavy stages.
    """

    name = "thread"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self._effective_workers(),
            thread_name_prefix="repro-stage",
        )


class ProcessBackend(_PoolBackend):
    """Tasks run on a process pool — actual multi-core parallelism.

    Task payloads, partitions, and results cross process boundaries via
    pickle, so stage functions must be module-level callables carrying
    their broadcast values as attributes (no captured locals); see
    ``_BuildCachedPartitionFromHandle`` / ``_ColumnErrorsDeltaTask`` in
    :mod:`repro.core.update` for the pattern.
    """

    name = "process"

    # Workers live in other interpreters: broadcast handles must resolve
    # from spill files, not from driver memory.
    shares_driver_memory = False

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self._effective_workers())
