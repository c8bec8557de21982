"""Speculative execution: deterministic straggler modelling.

Spark's speculative execution watches a stage's running tasks and, once a
task has run longer than a multiple of the stage's median task duration,
launches a duplicate copy on another executor; whichever copy finishes
first wins and the loser is killed.  The simulated engine reproduces the
*decision* and its effect on the makespan without ever racing real
duplicates — the whole point of the cost model is that replayed numbers
are backend-invariant.

Determinism is the design constraint.  Host-measured task durations are
wall-clock noise (they differ run to run and backend to backend), so the
straggler *detector* keys off the deterministic components of a task's
cost only: its injected fault count and its simulated retry-backoff wait
(both seeded hashes — see :mod:`repro.distengine.faults` and
:mod:`repro.resilience.retry`).  A task is a straggler when its retry
overhead signal exceeds ``multiplier`` times the stage median.  The
*counts* (``tasks_speculated_total``) are therefore bit-identical across
the serial and process backends for a fixed seed.

The makespan effect uses measured durations (that is what the cost model
replays): the duplicate is modelled as launching once the straggler has
run ``multiplier`` times the stage's median clean-attempt time and then
executing a single clean attempt — no injected faults, no backoff — so
the straggler's effective completion is ``min(original, launch + clean)``.
Whether the duplicate *wins* depends on those measured times, so
``speculative_wins_total`` is reported but, unlike the speculation counts,
is not guaranteed backend-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

__all__ = ["SpeculationConfig", "SpeculationPlan", "plan_speculation"]


@dataclass(frozen=True)
class SpeculationConfig:
    """Straggler-detection thresholds for speculative execution.

    Attributes
    ----------
    multiplier:
        A task is a straggler when its retry-overhead signal exceeds
        ``multiplier`` times the stage's median signal (Spark's
        ``spark.speculation.multiplier``, default 1.5).
    min_tasks:
        Stages with fewer tasks never speculate — a median over one or two
        tasks is meaningless (Spark's ``spark.speculation.quantile`` plays
        the same gatekeeping role).
    """

    multiplier: float = 1.5
    min_tasks: int = 2

    def __post_init__(self) -> None:
        if self.multiplier <= 1.0:
            raise ValueError(
                f"multiplier must be > 1, got {self.multiplier}"
            )
        if self.min_tasks < 2:
            raise ValueError(f"min_tasks must be >= 2, got {self.min_tasks}")


@dataclass(frozen=True)
class SpeculationPlan:
    """One stage's speculation decisions and their makespan effect.

    Attributes
    ----------
    speculated:
        Partition-ordered indices of tasks that received a speculative
        duplicate.  Deterministic across backends (seeded-hash inputs
        only).
    wins:
        Subset of ``speculated`` where the modelled duplicate finished
        before the original.  Depends on measured durations, so it is
        *not* backend-invariant.
    effective_durations:
        Per-task simulated durations after speculation: the winner's
        completion time for speculated tasks, ``duration + retry_wait``
        otherwise.  Never exceeds the unspeculated duration.
    """

    speculated: tuple[int, ...]
    wins: tuple[int, ...]
    effective_durations: tuple[float, ...]


def _overhead_signals(
    retry_waits: "list[float] | tuple[float, ...]",
    failure_counts: "list[int] | tuple[int, ...]",
) -> list[float]:
    """Deterministic per-task retry-overhead signal.

    ``1 + failures + normalized_wait`` — built exclusively from the fault
    injector's seeded decisions and the retry policy's seeded backoff, so
    the signal (and everything derived from it) is identical under every
    backend.  Waits are normalized by the stage's largest wait so the
    signal is scale-free.
    """
    wait_scale = max(retry_waits, default=0.0)
    return [
        1.0 + failures + (wait / wait_scale if wait_scale > 0.0 else 0.0)
        for wait, failures in zip(retry_waits, failure_counts)
    ]


def plan_speculation(
    durations: "list[float] | tuple[float, ...]",
    retry_waits: "list[float] | tuple[float, ...]",
    failure_counts: "list[int] | tuple[int, ...]",
    config: SpeculationConfig,
) -> SpeculationPlan:
    """Decide which tasks of one stage get speculative duplicates.

    Parameters mirror one :class:`~repro.distengine.runtime.StageReport`:
    measured compute durations, simulated backoff waits, and injected
    fault counts, all in partition order.
    """
    n_tasks = len(durations)
    if len(retry_waits) not in (0, n_tasks) or len(failure_counts) not in (0, n_tasks):
        raise ValueError(
            "durations, retry_waits, and failure_counts must describe the "
            f"same stage, got lengths {n_tasks}/{len(retry_waits)}/"
            f"{len(failure_counts)}"
        )
    waits = list(retry_waits) or [0.0] * n_tasks
    failures = list(failure_counts) or [0] * n_tasks
    full = [duration + wait for duration, wait in zip(durations, waits)]

    if n_tasks < config.min_tasks or not any(failures):
        return SpeculationPlan((), (), tuple(full))

    signals = _overhead_signals(waits, failures)
    threshold = config.multiplier * median(signals)
    speculated = tuple(
        index
        for index in range(n_tasks)
        if failures[index] > 0 and signals[index] > threshold
    )
    if not speculated:
        return SpeculationPlan((), (), tuple(full))

    # A clean attempt's cost: the task's measured compute time spread over
    # its attempts (the injector re-runs the whole task per attempt).
    clean = [
        duration / (1 + task_failures)
        for duration, task_failures in zip(durations, failures)
    ]
    launch = config.multiplier * median(clean)
    effective = list(full)
    wins = []
    for index in speculated:
        duplicate_finish = launch + clean[index]
        if duplicate_finish < full[index]:
            effective[index] = duplicate_finish
            wins.append(index)
    return SpeculationPlan(speculated, tuple(wins), tuple(effective))
