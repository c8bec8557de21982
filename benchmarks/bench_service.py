"""Service-layer benchmark: a multi-tenant fleet through one worker pool.

    python benchmarks/bench_service.py [--smoke]

Drives 32 jobs from 4 tenants (one with double fair-share weight) through
a single :class:`~repro.service.FactorizationService` per backend and
asserts the service's contracts as floors, like ``bench_plan`` /
``bench_update`` do for theirs:

* **fair share** — when half the fleet has drained, no tenant's
  completed-job share is below half its fair share;
* **kill + resume** — killing the service mid-run and resubmitting the
  same specs yields bit-identical factors and error traces versus the
  uninterrupted run;
* **backend invariance** — the serial and process backends produce
  identical results and identical fair-share schedules;
* **cancellation** — cancelling running jobs releases their leases and
  lets queued jobs activate on the next quantum.

Writes ``BENCH_service.json`` at the repo root: drain wall time and
resume wall time per backend.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.distengine import BACKEND_NAMES, DEFAULT_CLUSTER
from repro.service import (
    FactorizationService,
    JobSpec,
    JobState,
    ServiceConfig,
    TenantQuota,
)
from repro.tensor import planted_tensor

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _emit import emit, entry  # noqa: E402

N_TENANTS = 4
N_JOBS = 32
WEIGHTS = {"tenant-0": 2.0}  # tenant-0 deserves twice the throughput


def build_specs(dim: int, rank: int, iterations: int) -> list[JobSpec]:
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=rank, factor_density=0.3,
        rng=np.random.default_rng(7),
    )
    return [
        JobSpec(
            tenant=f"tenant-{index % N_TENANTS}",
            tensor=tensor,
            rank=rank,
            max_iterations=iterations,
            seed=index,
        )
        for index in range(N_JOBS)
    ]


def make_config(backend: str, root) -> ServiceConfig:
    return ServiceConfig(
        cluster=DEFAULT_CLUSTER.with_backend(backend, 2),
        checkpoint_root=root,
        max_live_jobs=4,
        quotas={t: TenantQuota(weight=w) for t, w in WEIGHTS.items()},
    )


def fingerprints(service: FactorizationService) -> dict:
    """Bit-level outcome of every DONE job."""
    out = {}
    for job_id, job in service.jobs.items():
        if job.state is not JobState.DONE:
            continue
        result = job.result
        out[job_id] = (
            tuple(factor.words.tobytes() for factor in result.factors),
            tuple(result.errors_per_iteration),
            result.error,
        )
    return out


def drain_fleet(specs, backend, root):
    """Uninterrupted run; returns (wall_s, fingerprints, vtimes)."""
    started = time.perf_counter()
    with FactorizationService(make_config(backend, root)) as service:
        for spec in specs:
            service.submit(spec)
        service.drain()
        wall = time.perf_counter() - started
        assert service.factory.open_leases == 0
        return wall, fingerprints(service), service.scheduler.snapshot()


def kill_then_resume(specs, backend, root):
    """Kill at half-drain (checking fairness there), resume, return results."""
    # Phase 1: run until half the fleet has completed, then "crash".
    service = FactorizationService(make_config(backend, root))
    try:
        for spec in specs:
            service.submit(spec)
        while True:
            done = sum(
                1 for j in service.jobs.values() if j.state is JobState.DONE
            )
            if done >= N_JOBS // 2 or not service.step():
                break
        assert_fair_share(service)
        in_flight = sum(
            1 for j in service.jobs.values()
            if j.state in (JobState.RUNNING, JobState.PENDING)
        )
        assert in_flight > 0, "kill point must leave jobs in flight"
    finally:
        service.close()

    # Phase 2: fresh service, same root, same specs — resume everything.
    started = time.perf_counter()
    with FactorizationService(make_config(backend, root)) as service:
        for spec in specs:
            service.submit(spec)
        service.drain()
        wall = time.perf_counter() - started
        return wall, fingerprints(service)


def assert_fair_share(service) -> None:
    """No tenant's completed share may fall below half its fair share."""
    done_by_tenant = {}
    for job in service.jobs.values():
        if job.state is JobState.DONE:
            done_by_tenant[job.tenant] = done_by_tenant.get(job.tenant, 0) + 1
    total_done = sum(done_by_tenant.values())
    assert total_done >= N_JOBS // 4, f"too few completions ({total_done})"
    weights = {
        f"tenant-{i}": WEIGHTS.get(f"tenant-{i}", 1.0)
        for i in range(N_TENANTS)
    }
    total_weight = sum(weights.values())
    for tenant, weight in weights.items():
        fair = weight / total_weight
        share = done_by_tenant.get(tenant, 0) / total_done
        assert share >= 0.5 * fair, (
            f"{tenant}: completed share {share:.3f} below half its fair "
            f"share {fair:.3f} (completions: {done_by_tenant})"
        )


def assert_cancellation_frees_capacity(specs, root) -> None:
    config = make_config("serial", root)
    with FactorizationService(config) as service:
        for spec in specs[:8]:
            service.submit(spec)
        service.step()
        running = [
            job_id for job_id, job in service.jobs.items()
            if job.state is JobState.RUNNING
        ]
        assert len(running) == config.max_live_jobs
        for job_id in running:
            service.cancel(job_id)
        assert service.factory.open_leases == 0, "cancel must release leases"
        service.step()
        replacements = [
            job_id for job_id, job in service.jobs.items()
            if job.state is JobState.RUNNING
        ]
        assert replacements, "queued jobs must activate after cancellation"
        assert not set(replacements) & set(running)
        service.drain()
        done = sum(1 for j in service.jobs.values() if j.state is JobState.DONE)
        assert done == 8 - len(running)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI")
    args = parser.parse_args(argv)
    dim = 8 if args.smoke else 14
    rank = 2 if args.smoke else 3
    iterations = 2 if args.smoke else 4

    import tempfile

    specs = build_specs(dim, rank, iterations)
    tenants = {spec.tenant for spec in specs}
    assert len(specs) >= 32 and len(tenants) >= 4

    entries = []
    baselines = {}
    vtimes = {}
    for backend in BACKEND_NAMES:
        with tempfile.TemporaryDirectory() as scratch:
            wall, results, vtime = drain_fleet(specs, backend, scratch)
        assert len(results) == N_JOBS
        baselines[backend] = results
        vtimes[backend] = vtime
        entries.append(entry(
            f"service_drain[{backend}]",
            {"backend": backend, "n_jobs": N_JOBS, "n_tenants": N_TENANTS,
             "dim": dim, "rank": rank},
            wall,
        ))
        print(f"{backend:>8}: drained {N_JOBS} jobs in {wall:.2f}s")

        with tempfile.TemporaryDirectory() as scratch:
            resume_wall, resumed = kill_then_resume(specs, backend, scratch)
        assert resumed == results, (
            f"{backend}: kill+resume results differ from uninterrupted run"
        )
        entries.append(entry(
            f"service_kill_resume[{backend}]",
            {"backend": backend, "n_jobs": N_JOBS, "n_tenants": N_TENANTS,
             "dim": dim, "rank": rank},
            resume_wall,
        ))
        print(f"{backend:>8}: kill+resume bit-identical "
              f"(resume leg {resume_wall:.2f}s)")

    for backend in BACKEND_NAMES[1:]:
        assert baselines[backend] == baselines["serial"], (
            f"{backend} results differ from serial"
        )
        assert vtimes[backend] == vtimes["serial"], (
            f"{backend} schedule differs from serial"
        )
    print("backend invariance: factors, errors, and schedules identical")

    with tempfile.TemporaryDirectory() as scratch:
        assert_cancellation_frees_capacity(specs, scratch)
    print("cancellation frees capacity")

    emit("BENCH_service.json", entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
