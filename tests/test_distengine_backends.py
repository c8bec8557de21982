"""Backend-equivalence tests for the stage-executor seam.

The engine's contract is that serial, thread, and process backends are
observationally identical — bit-identical factors, error traces, stage
reports, and ledger byte totals — because everything the cost model
consumes is measured inside the task, not scheduled by the driver.  These
tests pin that contract, plus the process-independence of shuffle
placement (``stable_hash``).
"""

import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DbtfConfig, dbtf
from repro.distengine import (
    BACKEND_NAMES,
    ClusterConfig,
    FaultInjector,
    ProcessBackend,
    SerialBackend,
    SimulatedRuntime,
    TaskFailedError,
    ThreadBackend,
    make_backend,
    stable_hash,
)
from repro.distengine.backends import execute_task
from repro.incremental import FactorizationSession
from repro.tensor import SparseBoolTensor, planted_tensor

BACKENDS = list(BACKEND_NAMES)


def _square_partition(index, items):
    """Module-level task so the process backend can pickle it."""
    return [item * item for item in items]


def _runtime(backend, **cluster_overrides):
    cluster = ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
        **cluster_overrides,
    )
    return SimulatedRuntime(cluster)


def _dbtf_fingerprint(tensor, backend, fault_injector=None, **overrides):
    """Everything that must be identical across backends, as one tuple."""
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                      n_workers=2),
        fault_injector=fault_injector,
    )
    try:
        result = dbtf(tensor, runtime=runtime, **overrides)
    finally:
        runtime.close()
    return (
        tuple(factor.words.tobytes() for factor in result.factors),
        result.errors_per_iteration,
        result.error,
        result.report.n_stages,
        tuple(stage.name for stage in runtime.stages),
        tuple(stage.n_tasks for stage in runtime.stages),
        result.report.shuffle_bytes,
        result.report.broadcast_bytes,
        result.report.collect_bytes,
        tuple(sorted(runtime.ledger.by_stage.items())),
        dict(runtime.task_failures),
    )


class TestBackendUnits:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_ordered_by_partition(self, backend):
        with make_backend(backend, n_workers=2) as executor:
            results, durations, failures = executor.run_stage(
                "square", _square_partition,
                [(i, [i, i + 1]) for i in range(6)],
            )
        assert results == [[i * i, (i + 1) * (i + 1)] for i in range(6)]
        assert len(durations) == 6 and all(d >= 0 for d in durations)
        assert failures == [0] * 6

    def test_make_backend_factory(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread"), ThreadBackend)
        assert isinstance(make_backend("process"), ProcessBackend)
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("spark")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_worker_count(self, backend):
        with pytest.raises(ValueError):
            make_backend(backend, n_workers=0)

    def test_pool_reused_across_stages(self):
        with ThreadBackend(n_workers=2) as backend:
            backend.run_stage("a", _square_partition, [(0, [1])])
            executor = backend._executor
            backend.run_stage("b", _square_partition, [(0, [2])])
            assert backend._executor is executor
        assert backend._executor is None  # close() tore the pool down

    def test_process_workers_lazy_reused_and_closed(self):
        with ProcessBackend(n_workers=2) as backend:
            assert backend._executor is None  # nothing starts before a stage
            backend.run_stage("a", _square_partition, [(0, [1])])
            executor = backend._executor
            backend.run_stage("b", _square_partition, [(0, [2])])
            assert backend._executor is executor
        assert backend._executor is None  # close() tore the pool down
        assert not any(process.is_alive() for process in executor.processes)

    def test_execute_task_counts_failures(self):
        injector = FaultInjector(failure_rate=0.9, max_retries=50, seed=0)
        outcome = execute_task(_square_partition, "s", 0, [2], injector)
        assert outcome.result == [4]
        assert outcome.failures >= 1
        assert outcome.duration >= 0


class TestConfigPlumbing:
    def test_cluster_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(backend="mpi")
        with pytest.raises(ValueError, match="n_workers"):
            ClusterConfig(n_workers=0)

    def test_with_backend_preserves_cost_model(self):
        cluster = ClusterConfig(n_machines=7).with_backend("thread", 3)
        assert cluster.backend == "thread"
        assert cluster.n_workers == 3
        assert cluster.n_machines == 7

    def test_dbtf_config_defers_to_cluster(self):
        cluster = ClusterConfig(backend="thread", n_workers=2)
        config = DbtfConfig(rank=2, cluster=cluster)
        tensor = SparseBoolTensor.from_dense(np.ones((2, 2, 2), dtype=np.uint8))
        with FactorizationSession(tensor, config) as session:
            assert session.runtime.config is cluster

    def test_runtime_backend_instance_override(self):
        backend = SerialBackend()
        runtime = SimulatedRuntime(ClusterConfig(backend="thread"), backend=backend)
        assert runtime.backend is backend


class TestStableHash:
    def test_deterministic_per_type(self):
        assert stable_hash(("a", 3)) == stable_hash(("a", 3))
        assert stable_hash(42) == stable_hash(np.int64(42))
        assert stable_hash("x") != stable_hash(b"x")
        assert stable_hash(("ab", "c")) != stable_hash(("a", "bc"))

    def test_spread_over_buckets(self):
        buckets = {stable_hash(("mode", i)) % 8 for i in range(256)}
        assert len(buckets) == 8

    def test_independent_of_hash_seed(self):
        """The same key lands in the same bucket under any PYTHONHASHSEED."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        code = (
            "from repro.distengine import stable_hash; "
            "print(stable_hash(('a', 3, b'z')))"
        )
        outputs = set()
        for seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", code],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout.strip()
            )
        assert len(outputs) == 1


class TestShuffleEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reduce_by_key_matches_serial(self, backend):
        def run(name):
            runtime = _runtime(name)
            try:
                pairs = [((i % 5, "k"), i) for i in range(40)]
                rdd = runtime.parallelize(pairs, n_partitions=4)
                reduced = rdd.reduce_by_key(operator.add, n_partitions=3)
                return (
                    reduced.glom(),
                    runtime.ledger.bytes_of_kind("shuffle"),
                    [stage.name for stage in runtime.stages],
                )
            finally:
                runtime.close()

        assert run(backend) == run("serial")


class TestDbtfEquivalence:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dim=st.integers(min_value=6, max_value=14),
        rank=st.integers(min_value=1, max_value=3),
    )
    def test_backends_bit_identical(self, seed, dim, rank):
        """Property: all backends agree on factors, traces, and ledgers."""
        rng = np.random.default_rng(seed)
        tensor, _ = planted_tensor((dim, dim, dim), rank=rank,
                                   factor_density=0.3, rng=rng)
        prints = {
            backend: _dbtf_fingerprint(
                tensor, backend, rank=rank, seed=seed, n_partitions=3,
                max_iterations=2,
            )
            for backend in BACKENDS
        }
        assert prints["thread"] == prints["serial"]
        assert prints["process"] == prints["serial"]

    def test_fault_retry_counts_survive_parallelism(self):
        rng = np.random.default_rng(3)
        tensor, _ = planted_tensor((10, 10, 10), rank=2, factor_density=0.3,
                                   rng=rng)
        injector = FaultInjector(failure_rate=0.15, max_retries=10, seed=5)
        prints = {
            backend: _dbtf_fingerprint(
                tensor, backend, fault_injector=injector, rank=2, seed=1,
                n_partitions=4, max_iterations=2,
            )
            for backend in BACKENDS
        }
        assert prints["thread"] == prints["serial"]
        assert prints["process"] == prints["serial"]
        assert sum(prints["serial"][-1].values()) > 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_retry_exhaustion_raises_under_parallel_backends(self, backend):
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                          n_workers=2),
            fault_injector=FaultInjector(failure_rate=0.9, max_retries=0,
                                         seed=0),
        )
        try:
            rdd = runtime.parallelize(list(range(20)), n_partitions=10)
            with pytest.raises(TaskFailedError):
                rdd.map_partitions_with_index(_square_partition).collect()
        finally:
            runtime.close()


class TestExtensionsUnderBackends:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_tucker_distributed_matches_serial(self, backend):
        from repro.tucker import BooleanTuckerConfig
        from repro.tucker.distributed import dbtf_tucker

        rng = np.random.default_rng(1)
        tensor, _ = planted_tensor((8, 8, 8), rank=2, factor_density=0.3,
                                   rng=rng)
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), max_iterations=2)

        def run(name):
            result = dbtf_tucker(tensor, config=config, n_partitions=3,
                                 backend=name, n_workers=2)
            return (
                tuple(f.words.tobytes() for f in result.factors),
                result.core.coords.tobytes(),
                result.errors_per_iteration,
            )

        assert run(backend) == run("serial")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_nway_restarts_match_serial(self, backend):
        from repro.nway import NwayCpConfig, cp_nway

        rng = np.random.default_rng(2)
        tensor, _ = planted_tensor((8, 8, 8), rank=2, factor_density=0.3,
                                   rng=rng)

        def run(name):
            config = NwayCpConfig(rank=2, max_iterations=2, n_initial_sets=3,
                                  seed=7, backend=name, n_workers=2)
            result = cp_nway(tensor, config=config)
            return (
                tuple(f.words.tobytes() for f in result.factors),
                result.error,
                result.errors_per_iteration,
            )

        assert run(backend) == run("serial")


class TestOwnershipBoundary:
    def test_from_partitions_copies_at_ingestion(self):
        runtime = SimulatedRuntime(ClusterConfig(n_machines=1,
                                                 cores_per_machine=1))
        source = [[1, 2], [3]]
        rdd = runtime.from_partitions(source)
        source[0].append(99)
        assert rdd.collect() == [1, 2, 3]

    def test_stages_hand_over_fresh_lists(self):
        """Cached stage outputs are owned by the new collection — even an
        identity ``map_partitions`` must not alias the source's lists."""
        runtime = SimulatedRuntime(ClusterConfig(n_machines=1,
                                                 cores_per_machine=1))
        rdd = runtime.parallelize(list(range(6)), n_partitions=2)
        mapped = rdd.map_partitions(lambda items: items).persist()
        mapped.count()  # materialize the cache
        assert mapped.node.cached is not rdd.node.cached
        assert all(a is not b
                   for a, b in zip(mapped.node.cached, rdd.node.cached))
