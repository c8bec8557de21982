"""RetryPolicy: backoff schedule, determinism, engine integration."""

import pickle

import pytest

from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    RetryPolicy,
    SimulatedRuntime,
    TaskFailedError,
)
from repro.distengine.backends import make_backend
from repro.distengine.backends.base import execute_task


def _identity(index, items):
    return items


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay_sec": -0.1},
            {"backoff_factor": 0.5},
            {"base_delay_sec": 2.0, "max_delay_sec": 1.0},
            {"jitter": -0.1},
            {"jitter": 1.5},
            {"deadline_sec": 0.0},
            {"deadline_sec": -1.0},
            {"blacklist_after": 0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_defaults_valid(self):
        RetryPolicy()


class TestBackoffSchedule:
    def test_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_delay("s", 3, 2) == policy.backoff_delay("s", 3, 2)

    def test_varies_with_inputs(self):
        policy = RetryPolicy(seed=7)
        delays = {
            policy.backoff_delay("s", 0, 1),
            policy.backoff_delay("s", 1, 1),
            policy.backoff_delay("t", 0, 1),
            RetryPolicy(seed=8).backoff_delay("s", 0, 1),
        }
        assert len(delays) == 4

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            base_delay_sec=1.0, backoff_factor=2.0, max_delay_sec=5.0, jitter=0.0
        )
        assert policy.backoff_delay("s", 0, 1) == 1.0
        assert policy.backoff_delay("s", 0, 2) == 2.0
        assert policy.backoff_delay("s", 0, 3) == 4.0
        assert policy.backoff_delay("s", 0, 4) == 5.0  # capped
        assert policy.backoff_delay("s", 0, 10) == 5.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay_sec=1.0, backoff_factor=1.0, jitter=0.25)
        for partition in range(50):
            delay = policy.backoff_delay("s", partition, 1)
            assert 0.75 <= delay <= 1.25

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_delay("s", 0, 0)

    def test_should_blacklist(self):
        assert not RetryPolicy().should_blacklist(100)
        policy = RetryPolicy(blacklist_after=3)
        assert not policy.should_blacklist(2)
        assert policy.should_blacklist(3)


def _failing_injector():
    """An injector whose rate guarantees some retries on 8 partitions."""
    return FaultInjector(failure_rate=0.5, max_retries=2, seed=11)


class TestExecuteTaskWithPolicy:
    def test_retry_wait_matches_schedule(self):
        injector = _failing_injector()
        policy = RetryPolicy(max_retries=10, seed=0)
        for partition in range(8):
            outcome = execute_task(
                _identity, "stage", partition, [1], injector,
                retry_policy=policy,
            )
            expected = sum(
                policy.backoff_delay("stage", partition, attempt)
                for attempt in range(1, outcome.failures + 1)
            )
            assert outcome.retry_wait == pytest.approx(expected)

    def test_no_policy_means_zero_wait(self):
        outcome = execute_task(_identity, "stage", 0, [1], _failing_injector())
        assert outcome.retry_wait == 0.0

    def test_policy_budget_replaces_injector_budget(self):
        # Seed 1 fails the first attempt but recovers by attempt 5: the
        # injector alone (max_retries=0) gives up, a generous policy does not.
        with pytest.raises(TaskFailedError):
            execute_task(
                _identity, "stage", 0, [1],
                FaultInjector(failure_rate=0.6, max_retries=0, seed=1),
            )
        outcome = execute_task(
            _identity, "stage", 0, [1],
            FaultInjector(failure_rate=0.6, max_retries=0, seed=1),
            retry_policy=RetryPolicy(max_retries=10),
        )
        assert outcome.result == [1]
        assert outcome.failures == 4

    def test_exhaustion_error_payload(self):
        injector = FaultInjector(failure_rate=0.999, max_retries=0, seed=0)
        policy = RetryPolicy(max_retries=2, seed=0)
        with pytest.raises(TaskFailedError) as excinfo:
            execute_task(_identity, "doomed", 4, [1], injector,
                         retry_policy=policy)
        error = excinfo.value
        assert error.stage == "doomed"
        assert error.partition == 4
        assert error.attempts == 3
        assert error.retry_wait == pytest.approx(
            policy.backoff_delay("doomed", 4, 1)
            + policy.backoff_delay("doomed", 4, 2)
        )
        message = str(error)
        assert "task 4 of stage 'doomed' failed 3 times" in message
        assert "simulated retry backoff" in message

    def test_deadline_fails_fast(self):
        injector = FaultInjector(failure_rate=0.999, max_retries=0, seed=0)
        policy = RetryPolicy(
            max_retries=100, base_delay_sec=1.0, backoff_factor=2.0,
            max_delay_sec=100.0, jitter=0.0, deadline_sec=5.0,
        )
        with pytest.raises(TaskFailedError, match="deadline of 5.0s") as excinfo:
            execute_task(_identity, "slow", 0, [1], injector,
                         retry_policy=policy)
        # 1 + 2 + 4 = 7s of backoff blows the 5s deadline on attempt 3.
        assert excinfo.value.attempts == 3

    def test_error_pickle_round_trip(self):
        error = TaskFailedError(
            "task 4 of stage 'doomed' failed 3 times (waited 0.150s of "
            "simulated retry backoff)",
            stage="doomed", partition=4, attempts=3, retry_wait=0.15,
        )
        restored = pickle.loads(pickle.dumps(error))
        assert str(restored) == str(error)
        assert restored.stage == "doomed"
        assert restored.partition == 4
        assert restored.attempts == 3
        assert restored.retry_wait == 0.15

    def test_error_pickle_round_trip_through_process_pool(self):
        injector = FaultInjector(failure_rate=0.999, max_retries=0, seed=0)
        policy = RetryPolicy(max_retries=1, seed=0)
        with make_backend("process", 2) as backend:
            with pytest.raises(TaskFailedError) as excinfo:
                backend.run_stage(
                    "doomed", _identity, [(0, [1])], injector,
                    retry_policy=policy,
                )
        error = excinfo.value
        assert (error.stage, error.partition) == ("doomed", 0)
        assert error.attempts == 2
        assert error.retry_wait > 0.0
        assert "failed 2 times" in str(error)


def _run_faulty(backend: str) -> SimulatedRuntime:
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend),
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
    def test_waits_charged_to_simulated_time(self):
        runtime = _run_faulty("serial")
        report = runtime.report()
        assert report.total_retry_wait > 0.0
        # Replaying the same stages without their waits must be cheaper.
        bare = SimulatedRuntime(runtime.config)
        for stage in runtime.stages:
            bare.record_stage(stage.name, stage.durations)
        assert runtime.simulated_time() > bare.simulated_time()

    def test_wait_metrics_recorded(self):
        runtime = _run_faulty("serial")
        counters = runtime.metrics.counters()
        total = sum(counters["retry_wait_seconds_total"].values())
        assert total == pytest.approx(runtime.report().total_retry_wait)

    @pytest.mark.parametrize("backend", ["process"])
    def test_waits_backend_invariant(self, backend):
        serial = _run_faulty("serial")
        other = _run_faulty(backend)
        assert [stage.retry_waits for stage in other.stages] == [
            stage.retry_waits for stage in serial.stages
        ]
        assert [stage.failure_counts for stage in other.stages] == [
            stage.failure_counts for stage in serial.stages
        ]

    def test_blacklist_threshold(self):
        runtime = SimulatedRuntime(
            ClusterConfig(backend="serial"),
            fault_injector=FaultInjector(
                failure_rate=0.6, max_retries=20, seed=9
            ),
            retry_policy=RetryPolicy(max_retries=20, blacklist_after=2),
        )
        try:
            data = runtime.parallelize(list(range(64)), n_partitions=8)
            data.map_partitions_with_index(_identity, name="work").collect()
        finally:
            runtime.close()
        expected = {
            (stage.name, index)
            for stage in runtime.stages
            for index, count in enumerate(stage.failure_counts)
            if count >= 2
        }
        assert runtime.blacklisted_partitions == expected
        assert expected  # the seed/rate above must actually trip it
        counters = runtime.metrics.counters()
        assert sum(
            counters["partitions_blacklisted_total"].values()
        ) == len(expected)

    def test_reset_clears_blacklist(self):
        runtime = SimulatedRuntime(ClusterConfig())
        runtime.blacklisted_partitions.add(("s", 0))
        runtime.reset()
        assert runtime.blacklisted_partitions == set()
