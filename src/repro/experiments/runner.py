"""Experiment infrastructure: timeouts, method outcomes, result tables.

Mirrors the paper's evaluation protocol: every run gets a wall-clock budget
(the paper uses 6 h for synthetic and 12 h for real-world runs; ours are
scaled down) and a memory budget for BCP_ALS's association matrices, and
failures are reported as ``O.O.T.`` / ``O.O.M.`` rows exactly like the
paper's figures do.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..baselines import MemoryBudgetExceeded, WalkNMergeConfig, bcp_als, walk_n_merge
from ..core import dbtf
from ..distengine import DEFAULT_CLUSTER, SimulatedRuntime
from ..tensor import SparseBoolTensor

__all__ = [
    "STATUS_OK",
    "STATUS_OOT",
    "STATUS_OOM",
    "MethodOutcome",
    "ResultTable",
    "call_with_timeout",
    "run_dbtf",
    "run_bcp_als",
    "run_walk_n_merge",
]

STATUS_OK = "ok"
STATUS_OOT = "O.O.T."
STATUS_OOM = "O.O.M."


class _Timeout(Exception):
    """Internal: raised by the SIGALRM handler."""


def call_with_timeout(
    fn: Callable[[], Any], timeout_sec: float | None
) -> tuple[Any, float, str]:
    """Run ``fn`` under a wall-clock budget.

    Returns ``(value, elapsed_seconds, status)``.  Timeouts use SIGALRM and
    therefore only fire from the main thread; elsewhere the budget is
    checked only after the call finishes (the run still completes, but is
    reported as O.O.T.).
    """
    use_alarm = (
        timeout_sec is not None
        and timeout_sec > 0
        and threading.current_thread() is threading.main_thread()
    )
    started = time.perf_counter()
    if use_alarm:
        def _handler(signum, frame):
            raise _Timeout()

        previous = signal.signal(signal.SIGALRM, _handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_sec)
    try:
        value = fn()
        elapsed = time.perf_counter() - started
    except _Timeout:
        return None, time.perf_counter() - started, STATUS_OOT
    except MemoryBudgetExceeded:
        return None, time.perf_counter() - started, STATUS_OOM
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    if timeout_sec is not None and elapsed > timeout_sec:
        return None, elapsed, STATUS_OOT
    return value, elapsed, STATUS_OK


@dataclass(frozen=True)
class MethodOutcome:
    """One method's result on one workload."""

    method: str
    status: str
    seconds: float
    error: int | None = None
    relative_error: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def time_label(self) -> str:
        """Seconds if the run finished, the failure status otherwise."""
        return f"{self.seconds:.2f}" if self.ok else self.status

    def error_label(self) -> str:
        if not self.ok or self.relative_error is None:
            return self.status if not self.ok else "-"
        return f"{self.relative_error:.3f}"


class ResultTable:
    """A printable experiment table (one paper figure/table each)."""

    def __init__(self, title: str, headers: list[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([str(cell) for cell in cells])

    def to_text(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = [",".join(self.headers)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines)

    def column(self, header: str) -> list[str]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def __str__(self) -> str:
        return self.to_text()


# ----------------------------------------------------------------------
# Standardized method runners
# ----------------------------------------------------------------------
def run_dbtf(
    tensor: SparseBoolTensor,
    rank: int,
    timeout_sec: float | None = None,
    n_machines: int = 16,
    backend: str = "serial",
    n_workers: int | None = None,
    tracing: bool = False,
    trace_path: str | None = None,
    trace_format: str = "jsonl",
    **config_overrides,
) -> MethodOutcome:
    """Run DBTF; ``seconds`` is the simulated M-machine wall time.

    The paper compares DBTF on its 16-worker cluster against the baselines
    on one machine, so the reported time is the engine's replay for
    ``n_machines``; the host's actual wall time is kept in
    ``details["host_seconds"]``.  ``backend``/``n_workers`` pick the
    host-side stage executor: the simulated time and all metered bytes are
    backend-invariant, but a parallel backend shrinks ``host_seconds`` on
    multi-core hosts.

    With ``tracing`` (or a ``trace_path``), the runtime collects a span
    trace: the tracer and metrics registry land in ``details["tracer"]`` /
    ``details["metrics"]``, and the trace is written to ``trace_path``
    (``trace_format`` is ``"jsonl"`` or ``"chrome"``) when one is given.
    """
    if trace_format not in ("jsonl", "chrome"):
        raise ValueError(
            f"trace_format must be 'jsonl' or 'chrome', got {trace_format!r}"
        )
    tracing = tracing or trace_path is not None
    runtime_box: list[SimulatedRuntime] = []

    def _run():
        cluster = DEFAULT_CLUSTER.with_backend(backend, n_workers)
        if tracing:
            cluster = cluster.with_tracing()
        with SimulatedRuntime(cluster) as runtime:
            runtime_box.append(runtime)
            return dbtf(tensor, rank=rank, runtime=runtime, **config_overrides)

    result, elapsed, status = call_with_timeout(_run, timeout_sec)
    if status != STATUS_OK:
        return MethodOutcome(method="DBTF", status=status, seconds=elapsed)
    runtime = runtime_box[0]
    simulated = runtime.simulated_time(n_machines)
    details = {
        "host_seconds": elapsed,
        "iterations": result.n_iterations,
        "shuffle_bytes": result.report.shuffle_bytes,
        "stages_dispatched": result.report.n_stages,
        "result": result,
    }
    if tracing:
        details["tracer"] = runtime.tracer
        details["metrics"] = runtime.metrics
        if trace_path is not None:
            from ..observability import write_chrome_trace, write_jsonl

            if trace_format == "chrome":
                write_chrome_trace(runtime.tracer, trace_path)
            else:
                write_jsonl(runtime.tracer, trace_path)
    return MethodOutcome(
        method="DBTF",
        status=STATUS_OK,
        seconds=simulated,
        error=result.error,
        relative_error=result.relative_error,
        details=details,
    )


def run_bcp_als(
    tensor: SparseBoolTensor,
    rank: int,
    timeout_sec: float | None = None,
    **kwargs,
) -> MethodOutcome:
    """Run BCP_ALS on a single (real) machine."""
    result, elapsed, status = call_with_timeout(
        lambda: bcp_als(tensor, rank=rank, **kwargs), timeout_sec
    )
    if status != STATUS_OK:
        return MethodOutcome(method="BCP_ALS", status=status, seconds=elapsed)
    return MethodOutcome(
        method="BCP_ALS",
        status=STATUS_OK,
        seconds=elapsed,
        error=result.error,
        relative_error=result.relative_error,
        details={"result": result},
    )


def run_walk_n_merge(
    tensor: SparseBoolTensor,
    rank: int,
    timeout_sec: float | None = None,
    config: WalkNMergeConfig | None = None,
) -> MethodOutcome:
    """Run Walk'n'Merge on a single (real) machine."""
    result, elapsed, status = call_with_timeout(
        lambda: walk_n_merge(tensor, rank=rank, config=config), timeout_sec
    )
    if status != STATUS_OK:
        return MethodOutcome(method="WalkNMerge", status=status, seconds=elapsed)
    return MethodOutcome(
        method="WalkNMerge",
        status=STATUS_OK,
        seconds=elapsed,
        error=result.error,
        relative_error=result.relative_error,
        details={"n_blocks": result.details["n_blocks"], "result": result},
    )
