"""Weighted fair-share scheduling over one shared worker pool.

Classic virtual-time fair queueing, specialized to cooperative solver
steps: every time a tenant's job advances one iteration, the tenant is
charged ``1 / weight`` units of virtual time, and the next quantum always
goes to the tenant with the *least* virtual time.  Under contention a
tenant with weight 2 therefore advances twice as often as a tenant with
weight 1, and a tenant that was idle while others ran does not get to
starve them afterwards (its virtual time is lifted to the current minimum
on first charge).

Everything is driven by logical counters — virtual time, submission
sequence numbers, iteration counts — never the wall clock, so a given
submission order produces the identical schedule under the serial and
process backends.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .job import Job
from .queue import TenantQuota

__all__ = ["FairShareScheduler"]


class FairShareScheduler:
    """Tracks per-tenant virtual time and picks who runs next."""

    def __init__(self, quota_for: Callable[[str], TenantQuota]):
        self._quota_for = quota_for
        self._vtime: dict[str, float] = {}

    def vtime(self, tenant: str) -> float:
        return self._vtime.get(tenant, 0.0)

    def charge(self, tenant: str, amount: float = 1.0) -> None:
        """Bill ``amount`` units of work to a tenant at its weight."""
        weight = self._quota_for(tenant).weight
        self._vtime[tenant] = self._ensure(tenant) + amount / weight

    def _ensure(self, tenant: str) -> float:
        """A tenant's virtual time, lifting late joiners to the floor.

        Without the lift, a tenant that sat idle while others accumulated
        virtual time would hold the minimum for as many quanta as the
        others ever consumed — fair-share would degenerate into
        starve-the-incumbents.  Lifting to the current minimum gives the
        newcomer priority *now* without granting it a retroactive debt.
        """
        if tenant not in self._vtime:
            floor = min(self._vtime.values()) if self._vtime else 0.0
            self._vtime[tenant] = floor
        return self._vtime[tenant]

    def pick(self, candidates: "dict[str, Job]") -> "Job | None":
        """The next job to receive a quantum, or ``None`` if no candidates.

        ``candidates`` maps each eligible tenant to the job that would run
        for it (head-of-line for activation, or its chosen live job for
        advancement).  The winning tenant is the one with minimal
        ``(virtual time, name)`` — the name tie-break keeps the schedule
        deterministic when virtual times are exactly equal, which happens
        constantly with equal weights.
        """
        if not candidates:
            return None
        tenant = min(candidates, key=lambda t: (self._ensure(t), t))
        return candidates[tenant]

    @staticmethod
    def preference(jobs: Iterable[Job]) -> "Job | None":
        """A tenant's own best job: highest priority, then earliest seq."""
        best = None
        for job in jobs:
            if best is None or (-job.priority, job.seq) < (-best.priority, best.seq):
                best = job
        return best

    def victim(self, live: Iterable[Job], candidate: Job) -> "Job | None":
        """The live job ``candidate`` may preempt, or ``None``.

        Preemption is deliberately conservative: it requires a *strictly*
        higher priority (equal-priority work waits its turn — churning
        leases for a tie gains nothing) and a victim resting at a
        checkpoint boundary (anything else would redo work on resume).
        Among eligible victims, take the lowest priority; break ties
        toward the tenant that has consumed the most virtual time, then
        the youngest submission.
        """
        eligible = [
            job
            for job in live
            if job.priority < candidate.priority and job.at_checkpoint_boundary
        ]
        if not eligible:
            return None
        return min(
            eligible,
            key=lambda job: (job.priority, -self._ensure(job.tenant), -job.seq),
        )

    def snapshot(self) -> "dict[str, float]":
        """Per-tenant virtual times, for dashboards and tests."""
        return dict(sorted(self._vtime.items()))

    def __repr__(self) -> str:
        return f"FairShareScheduler(vtime={self.snapshot()})"
