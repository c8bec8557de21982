"""Kill-and-resubmit resume: bit-identical, across backends.

The service's durability contract: killing the service mid-run and
resubmitting the same specs against the same checkpoint root continues
every in-flight job from its newest snapshot and produces factors and
error traces identical to an uninterrupted run — under every backend,
because job ids (and thus checkpoint directories) are deterministic and
scheduling uses logical clocks only.
"""

import numpy as np
import pytest

from repro.distengine import DEFAULT_CLUSTER
from repro.service import FactorizationService, JobSpec, JobState, ServiceConfig
from repro.tensor import planted_tensor

BACKENDS = ["serial", "process"]


def make_tensor(seed=0, dim=10):
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=3, factor_density=0.3,
        rng=np.random.default_rng(seed),
    )
    return tensor


def make_specs(tensor):
    specs = [
        JobSpec(tenant=tenant, tensor=tensor, rank=3, max_iterations=4,
                seed=seed)
        for tenant in ("a", "b")
        for seed in range(2)
    ]
    specs.append(JobSpec(tenant="a", tensor=tensor, method="nway-cp", rank=3,
                         max_iterations=3, n_initial_sets=2))
    specs.append(JobSpec(tenant="b", tensor=tensor, method="tucker", rank=2,
                         max_iterations=2))
    return specs


def run_service(specs, root, backend, kill_after=None):
    """Run specs under one service; return results if drained, else None."""
    config = ServiceConfig(
        cluster=DEFAULT_CLUSTER.with_backend(backend, 2),
        checkpoint_root=root,
        max_live_jobs=3,
    )
    service = FactorizationService(config)
    try:
        for spec in specs:
            service.submit(spec)
        if kill_after is not None:
            for _ in range(kill_after):
                if not service.step():
                    break
            return None  # killed mid-run; close() in finally is the "crash"
        service.drain()
        return {
            job_id: service.result(job_id)
            for job_id, job in service.jobs.items()
            if job.state is JobState.DONE
        }
    finally:
        service.close()


def assert_same_results(interrupted, uninterrupted):
    assert set(interrupted) == set(uninterrupted)
    for job_id, result in uninterrupted.items():
        resumed = interrupted[job_id]
        assert resumed.error == result.error, job_id
        assert tuple(resumed.errors_per_iteration) == tuple(
            result.errors_per_iteration
        ), job_id
        for mine, theirs in zip(resumed.factors, result.factors):
            assert np.array_equal(mine.words, theirs.words), job_id


class TestKillAndResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_is_bit_identical(self, tmp_path, backend):
        tensor = make_tensor()
        specs = make_specs(tensor)
        baseline = run_service(
            specs, tmp_path / "baseline", backend, kill_after=None
        )
        assert len(baseline) == len(specs)

        # Kill mid-run (several jobs in flight), then resubmit everything.
        root = tmp_path / "killed"
        assert run_service(specs, root, backend, kill_after=7) is None
        resumed = run_service(specs, root, backend, kill_after=None)
        assert_same_results(resumed, baseline)

    def test_resume_skips_completed_iterations(self, tmp_path):
        tensor = make_tensor()
        spec = JobSpec(tenant="a", tensor=tensor, rank=3, max_iterations=4)
        root = tmp_path / "spool"
        # First service: run to completion? No — kill after 3 quanta
        # (init + 2 iterations checkpointed).
        assert run_service([spec], root, "serial", kill_after=3) is None

        config = ServiceConfig(checkpoint_root=root)
        with FactorizationService(config) as service:
            job_id = service.submit(spec).job_id
            service.drain()
            job = service.jobs[job_id]
            result = service.result(job_id)
        # The resumed run replays fewer quanta than the full trace: the
        # completed iterations came from the snapshot, not recomputation.
        assert job.iterations < len(result.errors_per_iteration)

    def test_two_kills_still_bit_identical(self, tmp_path):
        tensor = make_tensor()
        specs = make_specs(tensor)
        baseline = run_service(specs, tmp_path / "base", "serial", None)
        root = tmp_path / "killed-twice"
        assert run_service(specs, root, "serial", kill_after=5) is None
        assert run_service(specs, root, "serial", kill_after=9) is None
        resumed = run_service(specs, root, "serial", None)
        assert_same_results(resumed, baseline)

    def test_backends_agree(self, tmp_path):
        tensor = make_tensor()
        specs = make_specs(tensor)
        results = {
            backend: run_service(specs, tmp_path / backend, backend, None)
            for backend in BACKENDS
        }
        assert_same_results(results["process"], results["serial"])


class TestFairnessAtDrain:
    def test_schedule_identical_across_backends(self, tmp_path):
        tensor = make_tensor()
        specs = make_specs(tensor)
        vtimes = {}
        for backend in BACKENDS:
            config = ServiceConfig(
                cluster=DEFAULT_CLUSTER.with_backend(backend, 2),
                checkpoint_root=tmp_path / backend,
            )
            with FactorizationService(config) as service:
                for spec in specs:
                    service.submit(spec)
                service.drain()
                vtimes[backend] = service.scheduler.snapshot()
        assert vtimes["serial"] == vtimes["process"]
