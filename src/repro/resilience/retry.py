"""Retry policy: exponential backoff with deterministic seeded jitter.

The engine's historical retry loop re-ran a failed task attempt
immediately and gave up after a fixed ``max_retries``.  Real clusters
(Spark's ``spark.task.maxFailures``, YARN's AM retries) wait between
attempts — backing off exponentially so a struggling executor is not
hammered — and bound each task by a deadline.  :class:`RetryPolicy` models
exactly that, with two properties the simulated engine requires:

* **Determinism.**  The jitter applied to each backoff interval is a
  seeded hash of ``(seed, stage, partition, attempt)`` — the same recipe
  :class:`~repro.distengine.faults.FaultInjector` uses for its failure
  decisions — so a fixed-seed run waits the exact same simulated amount
  under the serial and process backends.
* **Honest accounting.**  Backoff waits are *simulated*, never slept:
  :func:`~repro.distengine.backends.base.execute_task` accumulates them
  into the task outcome, the runtime charges them to the stage's simulated
  duration, and they surface as ``retry_wait_seconds`` histograms — so
  :class:`~repro.distengine.runtime.ExecutionReport` reflects what a real
  cluster would have paid without making the host actually wait.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry budget, backoff schedule, and failure thresholds.

    Attributes
    ----------
    max_retries:
        Re-executions allowed per task before
        :class:`~repro.distengine.faults.TaskFailedError`.  When a policy
        is given to the runtime it *replaces* the fault injector's fixed
        ``max_retries``.
    base_delay_sec:
        Simulated wait before the first re-execution.
    backoff_factor:
        Multiplier applied per retry: retry ``n`` waits
        ``base_delay_sec * backoff_factor ** (n - 1)`` (pre-jitter).
    max_delay_sec:
        Cap on a single backoff interval.
    jitter:
        Fraction in ``[0, 1]``: each interval is scaled by a deterministic
        factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    deadline_sec:
        Per-task budget over compute time plus accumulated backoff; when
        exceeded the task fails immediately instead of retrying further.
        ``None`` disables the deadline.
    blacklist_after:
        Fault count at which the runtime marks a partition's (simulated)
        executor as blacklisted — purely observational bookkeeping
        (``partitions_blacklisted_total`` and
        ``SimulatedRuntime.blacklisted_partitions``), modelling Spark's
        node blacklisting.  ``None`` disables it.
    seed:
        Varies the jitter draws (independent from the fault injector's
        seed).
    """

    max_retries: int = 3
    base_delay_sec: float = 0.05
    backoff_factor: float = 2.0
    max_delay_sec: float = 10.0
    jitter: float = 0.1
    deadline_sec: float | None = None
    blacklist_after: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_sec < 0:
            raise ValueError(
                f"base_delay_sec must be non-negative, got {self.base_delay_sec}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_delay_sec < self.base_delay_sec:
            raise ValueError(
                f"max_delay_sec ({self.max_delay_sec}) must be >= "
                f"base_delay_sec ({self.base_delay_sec})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_sec is not None and self.deadline_sec <= 0:
            raise ValueError(
                f"deadline_sec must be positive, got {self.deadline_sec}"
            )
        if self.blacklist_after is not None and self.blacklist_after <= 0:
            raise ValueError(
                f"blacklist_after must be positive, got {self.blacklist_after}"
            )

    def _jitter_factor(self, stage: str, partition: int, attempt: int) -> float:
        """Deterministic multiplier in ``[1 - jitter, 1 + jitter]``."""
        if self.jitter == 0.0:
            return 1.0
        token = f"retry:{self.seed}:{stage}:{partition}:{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return 1.0 + self.jitter * (2.0 * draw - 1.0)

    def backoff_delay(self, stage: str, partition: int, attempt: int) -> float:
        """Simulated wait (seconds) before re-execution ``attempt`` (>= 1).

        Exponential in the attempt number, capped at ``max_delay_sec``,
        scaled by the seeded jitter factor.  A pure function of its
        arguments, so backoff accounting is identical under every backend.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.base_delay_sec * self.backoff_factor ** (attempt - 1),
            self.max_delay_sec,
        )
        return base * self._jitter_factor(stage, partition, attempt)

    def should_blacklist(self, failures: int) -> bool:
        """Whether ``failures`` faults on one partition trip the blacklist."""
        return self.blacklist_after is not None and failures >= self.blacklist_after
