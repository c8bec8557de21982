"""Speculative execution: straggler detection, makespan effect, determinism."""

import pytest

from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    RetryPolicy,
    SimulatedRuntime,
    SpeculationConfig,
    plan_speculation,
)


def _identity(index, items):
    return items


class TestSpeculationConfig:
    def test_defaults(self):
        config = SpeculationConfig()
        assert config.multiplier == 1.5
        assert config.min_tasks == 2

    @pytest.mark.parametrize(
        "kwargs",
        [{"multiplier": 1.0}, {"multiplier": 0.5}, {"min_tasks": 1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SpeculationConfig(**kwargs)


class TestPlanSpeculation:
    def test_no_failures_means_no_speculation(self):
        plan = plan_speculation(
            [1.0, 1.0, 50.0], [0.0, 0.0, 0.0], [0, 0, 0], SpeculationConfig()
        )
        assert plan.speculated == ()
        assert plan.effective_durations == (1.0, 1.0, 50.0)

    def test_too_few_tasks(self):
        plan = plan_speculation(
            [10.0], [5.0], [3], SpeculationConfig(min_tasks=2)
        )
        assert plan.speculated == ()
        # Retry waits still count against the lone task's duration.
        assert plan.effective_durations == (15.0,)

    def test_straggler_capped_by_duplicate(self):
        # Task 2 failed twice and waited 8s: signal 1 + 2 + 8/8 = 4 vs a
        # median signal of 1, so it is speculated.  Its clean estimate is
        # 9.0 / (1 + 2) = 3.0; the duplicate launches at 1.5 * median(clean)
        # = 1.5 and finishes at 4.5, well under 9 + 8 = 17.
        plan = plan_speculation(
            [1.0, 1.0, 9.0, 1.0],
            [0.0, 0.0, 8.0, 0.0],
            [0, 0, 2, 0],
            SpeculationConfig(multiplier=1.5),
        )
        assert plan.speculated == (2,)
        assert plan.effective_durations[2] == pytest.approx(4.5)
        assert plan.effective_durations[:2] == (1.0, 1.0)

    def test_duplicate_never_hurts(self):
        durations = [1.0, 2.0, 30.0, 1.5]
        waits = [0.0, 0.0, 12.0, 0.0]
        plan = plan_speculation(
            durations, waits, [0, 0, 3, 0], SpeculationConfig()
        )
        for i, effective in enumerate(plan.effective_durations):
            assert effective <= durations[i] + waits[i] + 1e-12

    def test_clean_task_not_speculated_even_if_slow(self):
        # A slow task with zero failures is skew, not a fault straggler.
        plan = plan_speculation(
            [1.0, 1.0, 100.0], [0.0, 0.0, 0.0], [0, 0, 0],
            SpeculationConfig(),
        )
        assert plan.speculated == ()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plan_speculation([1.0, 2.0], [0.0], [0, 0], SpeculationConfig())
        with pytest.raises(ValueError):
            plan_speculation([1.0, 2.0], [0.0, 0.0], [0], SpeculationConfig())

    def test_deterministic(self):
        args = (
            [1.0, 1.0, 9.0, 1.0],
            [0.0, 0.0, 8.0, 0.0],
            [0, 0, 2, 0],
            SpeculationConfig(),
        )
        assert plan_speculation(*args) == plan_speculation(*args)


def _run(backend: str, speculation=None) -> SimulatedRuntime:
    runtime = SimulatedRuntime(
        ClusterConfig(
            n_machines=2,
            cores_per_machine=2,
            backend=backend,
            speculation=speculation,
        ),
        fault_injector=FaultInjector(failure_rate=0.4, max_retries=10, seed=3),
        retry_policy=RetryPolicy(max_retries=10, seed=0),
    )
    try:
        data = runtime.parallelize(list(range(64)), n_partitions=8)
        data.map_partitions_with_index(_identity, name="work").collect()
    finally:
        runtime.close()
    return runtime


class TestRuntimeIntegration:
    def test_counters_and_report(self):
        runtime = _run("serial", SpeculationConfig())
        report = runtime.report()
        counters = runtime.metrics.counters()
        speculated = sum(counters["tasks_speculated_total"].values())
        wins = sum(counters["speculative_wins_total"].values())
        assert report.tasks_speculated == speculated
        assert report.speculative_wins == wins
        assert speculated > 0  # the fault seed above must produce stragglers
        assert wins <= speculated

    def test_speculation_never_increases_makespan(self):
        baseline = _run("serial")
        speculated = _run("serial", SpeculationConfig())
        assert (
            speculated.simulated_time() <= baseline.simulated_time() + 1e-12
        )

    def test_speculated_counts_backend_invariant(self):
        counts = {}
        for backend in ("serial", "process"):
            runtime = _run(backend, SpeculationConfig())
            counters = runtime.metrics.counters()
            counts[backend] = sum(
                counters["tasks_speculated_total"].values()
            )
        assert counts["serial"] == counts["process"]
        assert counts["serial"] > 0

    def test_speculation_spans_emitted(self):
        runtime = SimulatedRuntime(
            ClusterConfig(
                backend="serial",
                speculation=SpeculationConfig(),
                tracing=True,
            ),
            fault_injector=FaultInjector(
                failure_rate=0.4, max_retries=10, seed=3
            ),
            retry_policy=RetryPolicy(max_retries=10, seed=0),
        )
        try:
            data = runtime.parallelize(list(range(64)), n_partitions=8)
            data.map_partitions_with_index(_identity, name="work").collect()
        finally:
            runtime.close()
        spans = [
            span
            for span in runtime.tracer.spans
            if span.kind == "speculation"
        ]
        assert spans
        counters = runtime.metrics.counters()
        assert len(spans) == sum(counters["tasks_speculated_total"].values())
        for span in spans:
            assert "won" in span.attrs
