"""Worker-resident partitions under the process backend.

The process backend keeps persist points and broadcast values in its
workers and ships only references afterwards.  That must stay invisible:
serial, two process workers and three (uneven affinity) give identical
factors, error traces, stage names and ledgers across the engine's
consumers.  Every resident entry must also be released when its runtime
closes — after a failed stage, across leases of one shared pool, and when
the driver dies without closing anything.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import DbtfConfig, dbtf
from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    RetryPolicy,
    RuntimeFactory,
    SimulatedRuntime,
    TaskFailedError,
    TransferKind,
)
from repro.distengine import broadcast
from repro.distengine.backends import ResidentPartition
from repro.incremental import FactorizationSession
from repro.tensor import TensorDelta, planted_tensor

#: (backend, n_workers): 5 partitions over 3 workers is uneven affinity.
BACKENDS = [("serial", None), ("process", 2), ("process", 3)]
PARTITIONS = 5

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _cluster(backend, workers, **overrides):
    return ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=workers,
        **overrides,
    )


def _engine_print(runtime):
    """Stage names in order plus the full per-stage ledger."""
    return (
        tuple(stage.name for stage in runtime.stages),
        dict(runtime.ledger.by_stage),
    )


def _factor_bytes(factors):
    return tuple(factor.words.tobytes() for factor in factors)


def _tag(index, items):
    """Module-level task so process workers can run it."""
    return [(index, item * 3) for item in items]


def _first(pair):
    return pair[0]


@pytest.fixture(scope="module")
def tensor():
    return planted_tensor(
        (18, 16, 14), rank=3, factor_density=0.3,
        rng=np.random.default_rng(5), additive_noise=0.02,
    )[0]


def _dbtf_print(tensor, backend, workers, fault_injector=None,
                retry_policy=None, **overrides):
    runtime = SimulatedRuntime(
        _cluster(backend, workers, **overrides),
        fault_injector=fault_injector, retry_policy=retry_policy,
    )
    try:
        config = DbtfConfig(
            rank=3, max_iterations=3, seed=2, n_partitions=PARTITIONS
        )
        result = dbtf(tensor, config=config, runtime=runtime)
        storage = runtime.storage
        return (
            _factor_bytes(result.factors),
            tuple(result.errors_per_iteration),
            _engine_print(runtime),
            dict(runtime.task_failures),
            runtime.report().total_retry_wait,
            None if storage is None else (
                storage.budget.spill_events, storage.budget.load_events,
            ),
        )
    finally:
        runtime.close()


def _deltas(tensor, n_epochs=3):
    """Hole-punch/refill deltas of four cells each, drawn from seed 9."""
    rng = np.random.default_rng(9)
    present = np.ravel_multi_index(tensor.coords.T, tensor.shape)
    absent = np.setdiff1d(np.arange(np.prod(tensor.shape)), present)
    deltas = []
    for _ in range(n_epochs):
        removed = np.sort(rng.choice(present, 4, replace=False))
        added = np.sort(rng.choice(absent, 4, replace=False))
        present = np.union1d(np.setdiff1d(present, removed), added)
        absent = np.union1d(np.setdiff1d(absent, added), removed)
        deltas.append(TensorDelta(tensor.shape, added, removed))
    return deltas


def _assert_all_equal(prints):
    reference = prints[BACKENDS[0]]
    for key, value in prints.items():
        assert value == reference, f"{key} differs from serial"


class TestEquivalence:
    def test_dbtf(self, tensor):
        _assert_all_equal({
            (b, w): _dbtf_print(tensor, b, w) for b, w in BACKENDS
        })

    def test_fault_injection_with_retry_policy(self, tensor):
        injector = FaultInjector(failure_rate=0.2, max_retries=10, seed=4)
        retry = RetryPolicy(max_retries=10, seed=1)
        prints = {
            (b, w): _dbtf_print(tensor, b, w, injector, retry)
            for b, w in BACKENDS
        }
        _assert_all_equal(prints)
        assert sum(prints[BACKENDS[0]][3].values()) > 0

    def test_budgeted_run_spills_identically(self, tensor, tmp_path):
        probe = SimulatedRuntime(
            _cluster("serial", None, memory_budget=1 << 40,
                     spill_dir=str(tmp_path / "probe"))
        )
        try:
            dbtf(tensor, config=DbtfConfig(
                rank=3, max_iterations=3, seed=2, n_partitions=PARTITIONS
            ), runtime=probe)
            working_set = probe.storage.budget.peak_resident
        finally:
            probe.close()
        prints = {
            (b, w): _dbtf_print(
                tensor, b, w, memory_budget=working_set // 2,
                spill_dir=str(tmp_path / f"{b}{w}"),
            )
            for b, w in BACKENDS
        }
        _assert_all_equal(prints)
        spill_events, _ = prints[BACKENDS[0]][5]
        assert spill_events > 0
        assert prints[BACKENDS[0]][2][1]["storage.spill"] > 0

    def test_session_delta_stream(self, tensor):
        deltas = _deltas(tensor)

        def run(backend, workers):
            config = DbtfConfig(
                rank=3, n_partitions=PARTITIONS, seed=0,
                cluster=_cluster(backend, workers),
            )
            with FactorizationSession(tensor, config) as session:
                epochs = [session.factorize()]
                epochs += [session.advance(delta) for delta in deltas]
                runtime = session.runtime
            return (
                tuple(
                    (_factor_bytes(epoch.result.factors),
                     tuple(epoch.result.errors_per_iteration))
                    for epoch in epochs
                ),
                _engine_print(runtime),
            )

        prints = {(b, w): run(b, w) for b, w in BACKENDS}
        _assert_all_equal(prints)
        assert any(
            name.startswith("patchPartitions")
            for name in prints[BACKENDS[0]][1][0]
        )

    def test_budgeted_session_spills_identically(self, tensor, tmp_path):
        # Patched generations are derived nodes a process worker holds and
        # hands back by value on spill; the serial run must spill them to
        # the same bytes although its untouched slabs are memmap views.
        deltas = _deltas(tensor)

        def run(backend, workers):
            config = DbtfConfig(
                rank=3, n_partitions=PARTITIONS, seed=0,
                cluster=_cluster(
                    backend, workers, memory_budget=3000,
                    spill_dir=str(tmp_path / f"{backend}{workers}"),
                ),
            )
            with FactorizationSession(tensor, config) as session:
                epochs = [session.factorize()]
                epochs += [session.advance(delta) for delta in deltas]
                runtime = session.runtime
                budget = runtime.storage.budget
                return (
                    tuple(
                        _factor_bytes(epoch.result.factors) for epoch in epochs
                    ),
                    _engine_print(runtime),
                    (budget.spill_events, budget.load_events,
                     budget.spilled_bytes),
                )

        prints = {(b, w): run(b, w) for b, w in BACKENDS}
        _assert_all_equal(prints)
        assert prints[BACKENDS[0]][2][0] > 0

    def test_dbtf_tucker(self, tensor):
        from repro.tucker import BooleanTuckerConfig
        from repro.tucker.distributed import dbtf_tucker

        def run(backend, workers):
            with SimulatedRuntime(_cluster(backend, workers)) as runtime:
                result = dbtf_tucker(
                    tensor,
                    config=BooleanTuckerConfig(
                        core_shape=(2, 2, 2), max_iterations=2
                    ),
                    n_partitions=PARTITIONS, runtime=runtime,
                )
                return (
                    _factor_bytes(result.factors),
                    result.core.coords.tobytes(),
                    tuple(result.errors_per_iteration),
                    _engine_print(runtime),
                )

        _assert_all_equal({(b, w): run(b, w) for b, w in BACKENDS})

    def test_budgeted_tucker_matches_unbudgeted(self, tensor, tmp_path):
        # Tucker keeps nothing derived from the factors in the plan: under
        # half its working set only the packed unfoldings page, and the
        # solve stays bit-identical to the unbudgeted one.
        from repro.tucker import BooleanTuckerConfig
        from repro.tucker.distributed import dbtf_tucker

        config = BooleanTuckerConfig(core_shape=(2, 3, 2), max_iterations=2)

        def solve(runtime):
            result = dbtf_tucker(
                tensor, config=config, n_partitions=PARTITIONS,
                runtime=runtime,
            )
            # Stage counts and shuffle, broadcast and collect bytes do not
            # depend on the prepare path; stage names and task payloads do
            # (views vs. coordinates).
            ledger = runtime.ledger
            return (
                _factor_bytes(result.factors),
                result.core.coords.tobytes(),
                tuple(result.errors_per_iteration),
                len(runtime.stages),
                tuple(ledger.bytes_of_kind(kind) for kind in (
                    TransferKind.SHUFFLE, TransferKind.BROADCAST,
                    TransferKind.COLLECT,
                )),
            )

        with SimulatedRuntime(_cluster("serial", None)) as runtime:
            unbudgeted = solve(runtime)
        probe = SimulatedRuntime(
            _cluster("serial", None, memory_budget=1 << 40,
                     spill_dir=str(tmp_path / "probe"))
        )
        with probe:
            solve(probe)
            working_set = probe.storage.budget.peak_resident

        budgeted = {}
        for backend, workers in BACKENDS:
            spill_dir = tmp_path / f"{backend}{workers}"
            with RuntimeFactory(_cluster(
                backend, workers, memory_budget=working_set // 2,
                spill_dir=str(spill_dir),
            )) as factory:
                lease = factory.lease()
                runtime = lease.runtime
                assert solve(runtime) == unbudgeted, (backend, workers)
                budget = runtime.storage.budget
                assert budget.spill_events > 0
                budgeted[backend, workers] = (
                    _engine_print(runtime),
                    (budget.spill_events, budget.load_events,
                     budget.spilled_bytes),
                )
                lease.close()
                assert factory.open_leases == 0
                assert not any(
                    key[0] == runtime.scope for key in broadcast._STORE
                )
                if backend == "process":
                    assert factory.backend.resident_entries() == [0] * workers
            assert not [path for path in spill_dir.rglob("*") if path.is_file()]
        _assert_all_equal(budgeted)


class TestDriverReads:
    def test_glom_and_collect_of_persisted_rdd(self):
        def run(backend, workers):
            with SimulatedRuntime(_cluster(backend, workers)) as runtime:
                rdd = runtime.parallelize(
                    list(range(23)), n_partitions=PARTITIONS
                ).map_partitions_with_index(_tag).persist()
                count = rdd.count()
                cached = list(rdd.node.cached)
                reads = (count, rdd.glom(), rdd.collect(), rdd.n_partitions)
                return reads + _engine_print(runtime), cached

        serial, _ = run("serial", None)
        for workers in (2, 3):
            process, cached = run("process", workers)
            assert process == serial
            # The persisted partitions stayed in the workers; the driver
            # only ever held references carrying their sizes.
            assert all(isinstance(p, ResidentPartition) for p in cached)
            assert [p.worker for p in cached] == [
                index % workers for index in range(PARTITIONS)
            ]


class TestRelease:
    def test_failed_stage_leaves_nothing_after_close(self):
        factory = RuntimeFactory(_cluster("process", 2))
        try:
            lease = factory.lease(
                fault_injector=FaultInjector(
                    failure_rate=0.5, max_retries=0, seed=3
                ),
            )
            runtime = lease.runtime
            runtime.broadcast(np.arange(8), name="xs")
            tagged = runtime.parallelize(
                list(range(12)), n_partitions=6
            ).map_partitions_with_index(_tag).persist()
            with pytest.raises(TaskFailedError):
                tagged.map(_first).collect()
            # The aborted stage still left its broadcast (and the taps of
            # tasks that succeeded) in the workers...
            assert sum(factory.backend.resident_entries()) >= 2
            lease.close()
            # ...and closing the runtime released all of it.
            assert factory.backend.resident_entries() == [0, 0]
        finally:
            factory.close()

    def test_sequential_leases_do_not_leak(self, tensor):
        with RuntimeFactory(_cluster("process", 2)) as factory:
            for seed in range(3):
                lease = factory.lease()
                dbtf(tensor, config=DbtfConfig(
                    rank=3, max_iterations=2, seed=seed, n_partitions=4
                ), runtime=lease.runtime)
                # The job's factor broadcasts are still worker-resident.
                assert sum(factory.backend.resident_entries()) > 0
                lease.close()
                assert factory.backend.resident_entries() == [0, 0]
            assert factory.open_leases == 0


_KILLED_DRIVER = """
import os
import numpy as np
from repro.core import DbtfConfig, decompose
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import planted_tensor

tensor = planted_tensor((12, 12, 12), rank=2, factor_density=0.3,
                        rng=np.random.default_rng(0))[0]
cluster = ClusterConfig(backend="process", n_workers=2)
runtime = SimulatedRuntime(cluster)
steps = decompose.dbtf_steps(
    tensor, DbtfConfig(rank=2, n_partitions=4, max_iterations=5,
                       cluster=cluster), runtime,
)
next(steps)
print(" ".join(str(p.pid) for p in runtime.backend._executor.processes),
      flush=True)
os._exit(0)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_killed_driver_leaves_no_worker():
    env = {**os.environ,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    # The workers inherit the captured stdout, so this returns only once
    # they have exited too (or times out if they never do).
    out = subprocess.run(
        [sys.executable, "-c", _KILLED_DRIVER], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)
