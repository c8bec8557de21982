"""Failure-injection tests for the simulated engine and DBTF on top of it."""

import numpy as np
import pytest

from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    SimulatedRuntime,
    TaskFailedError,
)
from repro.tensor import planted_tensor


class TestFaultInjector:
    def test_deterministic_decisions(self):
        injector = FaultInjector(failure_rate=0.5, seed=1)
        decisions = [injector.should_fail("s", p, a) for p in range(10) for a in range(3)]
        again = [injector.should_fail("s", p, a) for p in range(10) for a in range(3)]
        assert decisions == again

    def test_zero_rate_never_fails(self):
        injector = FaultInjector(failure_rate=0.0)
        assert not any(
            injector.should_fail("s", p, a) for p in range(50) for a in range(3)
        )

    def test_rate_roughly_respected(self):
        injector = FaultInjector(failure_rate=0.3, seed=2)
        failures = sum(injector.should_fail("s", p, 0) for p in range(1000))
        assert 200 < failures < 400

    def test_seed_changes_decisions(self):
        a = FaultInjector(failure_rate=0.5, seed=1)
        b = FaultInjector(failure_rate=0.5, seed=2)
        decisions_a = [a.should_fail("s", p, 0) for p in range(100)]
        decisions_b = [b.should_fail("s", p, 0) for p in range(100)]
        assert decisions_a != decisions_b

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultInjector(failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(max_retries=-1)


class TestEngineRetries:
    def _runtime(self, rate, retries=5, seed=0):
        return SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=2),
            fault_injector=FaultInjector(failure_rate=rate, max_retries=retries,
                                         seed=seed),
        )

    def test_results_unchanged_by_retries(self):
        runtime = self._runtime(rate=0.4)
        rdd = runtime.parallelize(list(range(20)), n_partitions=5)
        assert rdd.map(lambda x: x * 2).collect() == [x * 2 for x in range(20)]
        assert runtime.total_task_failures > 0

    def test_failures_counted_per_stage(self):
        runtime = self._runtime(rate=0.4, seed=3)
        rdd = runtime.parallelize(list(range(20)), n_partitions=8)
        rdd.map(lambda x: x, name="stage-a").collect()
        assert runtime.task_failures.get("stage-a", 0) >= 1

    def test_retry_budget_exhaustion_raises(self):
        runtime = self._runtime(rate=0.9, retries=0, seed=0)
        rdd = runtime.parallelize(list(range(20)), n_partitions=10)
        with pytest.raises(TaskFailedError):
            rdd.map(lambda x: x).collect()

    def test_lost_attempts_charge_stage_time(self):
        def run(rate, seed=7):
            runtime = self._runtime(rate=rate, seed=seed)
            rdd = runtime.parallelize(list(range(400)), n_partitions=4)
            rdd.map(lambda x: sum(range(500)), name="work").count()
            stage = next(s for s in runtime.stages if s.name == "work")
            return stage.total_cpu_time, runtime.total_task_failures

        clean_time, clean_failures = run(0.0)
        faulty_time, faulty_failures = run(0.6)
        assert clean_failures == 0
        assert faulty_failures > 0
        assert faulty_time > clean_time

    def test_reset_clears_failures(self):
        runtime = self._runtime(rate=0.4)
        rdd = runtime.parallelize([1, 2, 3], n_partitions=3)
        rdd.map(lambda x: x).collect()
        runtime.reset()
        assert runtime.total_task_failures == 0


class TestDbtfUnderFaults:
    def test_same_factors_with_and_without_faults(self):
        from repro.core import dbtf

        rng = np.random.default_rng(0)
        tensor, _ = planted_tensor((12, 12, 12), rank=2, factor_density=0.3, rng=rng)
        clean_runtime = SimulatedRuntime()
        clean = dbtf(tensor, rank=2, seed=1, n_partitions=4, runtime=clean_runtime)
        faulty_runtime = SimulatedRuntime(
            # Faults are drawn per stage name; seed 12 fires in both the
            # first (fused) and the later column stages.
            fault_injector=FaultInjector(failure_rate=0.15, max_retries=10, seed=12)
        )
        faulty = dbtf(tensor, rank=2, seed=1, n_partitions=4, runtime=faulty_runtime)
        assert clean.factors == faulty.factors
        assert clean.error == faulty.error
        assert faulty_runtime.total_task_failures > 0


def _double(x):
    """Module-level map function so the process backend can pickle it."""
    return x * 2


def _increment(x):
    return x + 1


class TestFaultDeterminismAcrossBackends:
    """The injector's decisions — and therefore the retry counters the
    metrics registry ends up with — must not depend on the stage executor.
    """

    def _retry_counters(self, backend):
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                          n_workers=2),
            fault_injector=FaultInjector(failure_rate=0.4, max_retries=5,
                                         seed=11),
        )
        try:
            rdd = runtime.parallelize(list(range(24)), n_partitions=6)
            rdd.map(_double, name="double").collect()
            rdd.map(_increment, name="increment").collect()
        finally:
            runtime.close()
        return (
            runtime.metrics.counters().get("task_failures_total", {}),
            runtime.task_failures,
        )

    def test_registry_retry_counters_backend_invariant(self):
        serial_counters, serial_facade = self._retry_counters("serial")
        assert serial_facade  # the fixed spec does inject failures
        counters, facade = self._retry_counters("process")
        assert counters == serial_counters
        assert facade == serial_facade

    def test_facade_reads_registry(self):
        counters, facade = self._retry_counters("serial")
        assert facade == {
            dict(labels)["stage"]: int(value)
            for labels, value in counters.items()
        }


class TestTaskFailedErrorPayload:
    def _raise_exhausted(self, backend):
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=1, cores_per_machine=1, backend=backend,
                          n_workers=2),
            fault_injector=FaultInjector(failure_rate=0.95, max_retries=0,
                                         seed=0),
        )
        try:
            rdd = runtime.parallelize(list(range(8)), n_partitions=4)
            with pytest.raises(TaskFailedError) as excinfo:
                rdd.map(_increment, name="doomed").collect()
        finally:
            runtime.close()
        return excinfo.value

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_error_carries_stage_and_partition(self, backend):
        error = self._raise_exhausted(backend)
        assert error.stage == "doomed"
        assert isinstance(error.partition, int)
        # Message is self-contained too, for logs that only keep the text.
        assert "doomed" in str(error)
        assert f"task {error.partition} " in str(error)

    def test_attributes_survive_pickling(self):
        import pickle

        original = TaskFailedError("task 3 of stage 's' failed 2 times",
                                   stage="s", partition=3)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.stage == "s"
        assert clone.partition == 3
        assert str(clone) == str(original)
