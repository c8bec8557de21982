"""Per-epoch driver cost that does not grow with a session's history.

Three parts:

* ``SimulatedRuntime`` folds each recorded stage's simulated compute into
  running totals, so ``report()`` / ``simulated_time()`` at the configured
  M read totals instead of replaying every stage.  The totals must equal a
  full replay bit for bit — on serial and process backends, under faults
  with retries, with speculation, and after ``reset()`` — and any other M
  must still replay exactly as before.
* A long session of tiny epochs: every ``advance`` does driver work in
  O(|Δ|) plus O(stages run this epoch), counted in calls, not seconds.
* Certified epochs: an epoch whose delta drains no decision certificate
  runs the patch stage alone — no factor broadcast, no round, no
  confirmation — and a process worker's resident store does not grow with
  the epochs, since each broadcast value is released once read.
"""

import numpy as np
import pytest

import repro.core.update as update_module
import repro.distengine.runtime as runtime_module
import repro.tensor.delta as delta_module
import repro.tensor.sparse as sparse_module
from repro import DbtfConfig, FactorizationSession, dbtf
from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    RetryPolicy,
    SimulatedRuntime,
    SpeculationConfig,
    plan_speculation,
)
from repro.distengine.scheduler import makespan
from repro.tensor import SparseBoolTensor, TensorDelta
from repro.tensor.random import planted_tensor

from .test_decision_certificates import _hole_punch_stream


def _effective(stage, speculation):
    """Per-task simulated durations with retry waits and speculation applied."""
    if speculation is not None and (any(stage.retry_waits) or any(stage.failure_counts)):
        return plan_speculation(
            stage.durations, stage.retry_waits, stage.failure_counts, speculation
        ).effective_durations
    waits = stage.retry_waits or (0.0,) * stage.n_tasks
    return tuple(duration + wait for duration, wait in zip(stage.durations, waits))


def _replay(runtime, machines):
    """``(compute, network, spill, total)`` by replaying every recorded stage."""
    config = runtime.config
    slots = machines * config.cores_per_machine
    compute = 0.0
    for stage in runtime.stages:
        if not stage.durations:
            continue
        waves = -(-stage.n_tasks // slots)
        compute += makespan(_effective(stage, runtime.speculation), slots)
        compute += waves * config.task_launch_overhead_sec
        compute += config.driver_latency_sec
    ledger = runtime.ledger
    network_bytes = (
        ledger.bytes_of_kind("shuffle") + ledger.bytes_of_kind("collect")
        + ledger.bytes_of_kind("task")
        + runtime.report(machines).broadcast_bytes
    )
    network = network_bytes / config.network_bytes_per_sec
    spill = ledger.bytes_of_kind("spill") / config.disk_bytes_per_sec
    return compute, network, spill, compute + network + spill


def _assert_matches_replay(runtime, machines=None):
    machines = runtime.config.n_machines if machines is None else machines
    compute, network, spill, total = _replay(runtime, machines)
    report = runtime.report(machines)
    assert report.simulated_time == total
    assert runtime.simulated_time(machines) == total
    assert report.total_cpu_time == sum(s.total_cpu_time for s in runtime.stages)
    assert report.total_retry_wait == sum(s.total_retry_wait for s in runtime.stages)
    assert report.n_stages == len(runtime.stages)
    gauge = runtime.metrics.value
    assert gauge("simulated_compute_seconds", machines=machines) == compute
    assert gauge("simulated_network_seconds", machines=machines) == network
    assert gauge("simulated_time_seconds", machines=machines) == total
    if spill:
        assert gauge("simulated_spill_seconds", machines=machines) == spill


def _planted(dim=12, rank=3, seed=0):
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank, 0.3, np.random.default_rng(seed),
        additive_noise=0.05, destructive_noise=0.05,
    )
    return tensor


RUNTIMES = {
    "serial": lambda: SimulatedRuntime(ClusterConfig(backend="serial")),
    "process2": lambda: SimulatedRuntime(
        ClusterConfig(backend="process", n_workers=2)
    ),
    "faults": lambda: SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend="serial"),
        fault_injector=FaultInjector(failure_rate=0.3, max_retries=10, seed=3),
        retry_policy=RetryPolicy(max_retries=10, seed=0),
    ),
    "speculation": lambda: SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend="serial"),
        fault_injector=FaultInjector(failure_rate=0.3, max_retries=10, seed=5),
        retry_policy=RetryPolicy(max_retries=10, seed=1),
        speculation=SpeculationConfig(multiplier=1.5),
    ),
}


class TestRunningTotalsEqualReplay:
    @pytest.mark.parametrize("name", sorted(RUNTIMES))
    def test_batch_dbtf(self, name):
        runtime = RUNTIMES[name]()
        try:
            result = dbtf(
                _planted(), config=DbtfConfig(rank=3, max_iterations=4, seed=0),
                runtime=runtime,
            )
            assert runtime.stages
            _assert_matches_replay(runtime)
            # The solver's own report was read from the totals as well.
            assert result.report == runtime.report()
            if name in ("faults", "speculation"):
                assert runtime.report().total_retry_wait > 0.0
            if name == "speculation":
                assert runtime.report().tasks_speculated > 0
            for machines in (1, 4, 16):
                _assert_matches_replay(runtime, machines)
        finally:
            runtime.close()

    def test_after_reset(self):
        runtime = RUNTIMES["faults"]()
        config = DbtfConfig(rank=3, max_iterations=3, seed=0)
        try:
            dbtf(_planted(seed=1), config=config, runtime=runtime)
            runtime.reset()
            report = runtime.report()
            assert (report.n_stages, report.simulated_time) == (0, 0.0)
            assert report.total_cpu_time == report.total_retry_wait == 0
            dbtf(_planted(seed=2), config=config, runtime=runtime)
            _assert_matches_replay(runtime)
            _assert_matches_replay(runtime, 16)
        finally:
            runtime.close()


#: Synthetic stages with fixed durations, and the simulated times a full
#: replay gave for them before running totals existed (``float.hex``).
SYNTHETIC_STAGES = [
    (f"s{index % 5}", [((index * 7 + task * 3) % 11 + 1) / 1000 for task in range(index % 13)])
    for index in range(40)
]
SYNTHETIC_TIMES = {
    None: "0x1.547ae147ae14cp-1",
    1: "0x1.58d4fdf3b6457p+0",
    4: "0x1.547ae147ae14cp-1",
    16: "0x1.3be76c8b4395cp-1",
}


class TestReplayAtOtherMachineCounts:
    def test_simulated_times_unchanged(self):
        runtime = SimulatedRuntime(ClusterConfig(n_machines=4, cores_per_machine=2))
        for name, durations in SYNTHETIC_STAGES:
            runtime.record_stage(name, durations)
        for machines, expected in SYNTHETIC_TIMES.items():
            assert runtime.simulated_time(machines).hex() == expected
            if machines is not None:
                _assert_matches_replay(runtime, machines)


def _flip_deltas(start, n_epochs, seed):
    """``n_epochs`` deltas of 1-2 random cell flips each, chained from ``start``.

    Returns the deltas and the final tensor's cells as a set of flat indices.
    """
    rng = np.random.default_rng(seed)
    present = set(start.flat.tolist())
    deltas = []
    for _ in range(n_epochs):
        cells = rng.choice(start.n_cells, size=int(rng.integers(1, 3)), replace=False)
        cells = cells.tolist()
        deltas.append(TensorDelta(
            start.shape,
            added=[c for c in cells if c not in present],
            removed=[c for c in cells if c in present],
        ))
        present.symmetric_difference_update(cells)
    return deltas, present


class TestLongSession:
    """Driver work per epoch is O(|Δ|) + O(stages this epoch), for ≥1,000 epochs."""

    N_EPOCHS = 1000

    def test_driver_work_does_not_grow(self, monkeypatch):
        shape = (8, 8, 8)
        rng = np.random.default_rng(7)
        start = SparseBoolTensor.from_dense((rng.random(shape) < 0.2).astype(np.uint8))
        deltas, expected = _flip_deltas(start, self.N_EPOCHS, seed=11)

        calls = {"makespan": 0}
        largest = {"coords_from_flat": 0, "_canonical_coords": 0}

        def counted_makespan(durations, slots):
            calls["makespan"] += 1
            return makespan(durations, slots)

        def measured(module, name):
            original = getattr(module, name)

            def wrapper(values, *args):
                largest[name] = max(largest[name], len(values))
                return original(values, *args)

            monkeypatch.setattr(module, name, wrapper)

        monkeypatch.setattr(runtime_module, "makespan", counted_makespan)
        for module in (sparse_module, delta_module):
            measured(module, "coords_from_flat")
        measured(sparse_module, "_canonical_coords")

        config = DbtfConfig(rank=2, n_partitions=2, max_iterations=3, seed=0)
        session = FactorizationSession(start, config)
        runtime = session.runtime
        report_makespans = []
        original_report = runtime.report

        def counted_report(*args, **kwargs):
            before = calls["makespan"]
            report = original_report(*args, **kwargs)
            report_makespans.append(calls["makespan"] - before)
            return report

        monkeypatch.setattr(runtime, "report", counted_report)
        with session:
            session.factorize()
            for delta in deltas:
                largest.update(coords_from_flat=0, _canonical_coords=0)
                stages_before = len(runtime.stages)
                makespans_before = calls["makespan"]
                session.advance(delta)
                ran = sum(
                    1 for stage in runtime.stages[stages_before:] if stage.durations
                )
                # One fold per non-empty stage run this epoch, none for history.
                assert calls["makespan"] - makespans_before == ran
                assert largest["coords_from_flat"] <= delta.n_changes
                assert largest["_canonical_coords"] <= delta.n_changes
            assert session.epoch == self.N_EPOCHS
            assert len(report_makespans) == self.N_EPOCHS + 1
            assert not any(report_makespans)
            assert set(session.tensor.flat.tolist()) == expected
        _assert_matches_replay(runtime)


class TestCertifiedEpochs:
    def test_steady_state_epoch_runs_only_the_patch(self, monkeypatch):
        # Each delta charges some certificates but drains none, so every
        # update returns before its first round.
        tensor, deltas = _hole_punch_stream(
            seed=0, dim=24, ones=8, epochs=30, holes=2
        )
        confirms = []
        confirm = update_module._confirm

        def counted_confirm(*args):
            confirms.append(args)
            return confirm(*args)

        monkeypatch.setattr(update_module, "_confirm", counted_confirm)
        config = DbtfConfig(rank=4, n_partitions=4, seed=0)
        with FactorizationSession(tensor, config) as session:
            runtime = session.runtime
            broadcasts = []
            broadcast = runtime.broadcast

            def named_broadcast(value, name="broadcast"):
                broadcasts.append(name)
                return broadcast(value, name=name)

            monkeypatch.setattr(runtime, "broadcast", named_broadcast)
            session.factorize()
            assert confirms and "updateFactor.broadcast" in broadcasts
            certificates = session._unfoldings.certificates
            for delta in deltas:
                stages = len(runtime.stages)
                confirms.clear()
                broadcasts.clear()
                slack = [mode.slack.copy() for mode in certificates]
                session.advance(delta)
                assert [stage.name for stage in runtime.stages[stages:]] == [
                    "patchPartitions"
                ]
                assert broadcasts == ["patchCells"]
                assert not confirms
                assert any(
                    (mode.slack != before).any()
                    for mode, before in zip(certificates, slack)
                )

    def test_process_worker_stores_stay_flat(self):
        # Some of these epochs drain certificates and run rounds, so every
        # kind of broadcast passes through the workers: the factors, the
        # rounds' ``columnUpdate`` and the patch's ``patchCells``.
        tensor, deltas = _hole_punch_stream(
            seed=0, dim=20, ones=6, epochs=60, holes=4
        )
        config = DbtfConfig(
            rank=4, n_partitions=4, seed=0,
            cluster=ClusterConfig(backend="process", n_workers=2),
        )
        with FactorizationSession(tensor, config) as session:
            runtime = session.runtime
            session.factorize()
            entries, names = {}, set()
            for epoch, delta in enumerate(deltas, start=1):
                stages = len(runtime.stages)
                session.advance(delta)
                if epoch > 10:
                    names.update(
                        stage.name for stage in runtime.stages[stages:]
                    )
                if epoch in (10, 60):
                    entries[epoch] = runtime.backend.resident_entries()
            assert "columnErrors" in names
            assert entries[60] == entries[10]
