"""Delta patching of partitioned unfoldings and warm-start bookkeeping.

The load-bearing invariant: patching the cached partitions with a delta
must produce bit-identical packed blocks to rebuilding the partitions from
the delta'd tensor — on the default coordinate-shuffle path and on the
budgeted memmap path alike.  On top of that, the two driver-side warm-start
helpers must be exact: the baseline error formula against a full Hamming
recount, and the dirty-column criterion against brute-force per-column
decision comparison.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import packing
from repro.core import (
    PartitionedUnfoldings,
    baseline_error_after_delta,
    dirty_columns_for_delta,
    update_factor,
)
from repro.core import dbtf
from repro.core.config import DbtfConfig
from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    RetryPolicy,
    SimulatedRuntime,
    TransferKind,
)
from repro.distengine.shuffle import estimate_bytes
from repro.incremental import FactorizationSession
from repro.tensor import (
    SparseBoolTensor,
    TensorDelta,
    planted_tensor,
    random_factors,
    tensor_from_factors,
)

SHAPE = (7, 6, 5)


def _random_tensor(seed, shape=SHAPE, density=0.25):
    rng = np.random.default_rng(seed)
    return SparseBoolTensor.from_dense(
        (rng.random(shape) < density).astype(np.uint8)
    )


def _random_delta(tensor, seed, n_adds=4, n_removes=4):
    rng = np.random.default_rng(seed)
    coords = tensor.coords
    n_removes = min(n_removes, len(coords))
    removed = (
        coords[rng.choice(len(coords), size=n_removes, replace=False)]
        if n_removes
        else np.empty((0, 3), dtype=np.int64)
    )
    present = {tuple(int(x) for x in cell) for cell in coords}
    added = []
    while len(added) < n_adds:
        cell = tuple(int(rng.integers(0, dim)) for dim in tensor.shape)
        if cell not in present:
            present.add(cell)
            added.append(cell)
    return TensorDelta.from_coords(
        tensor.shape, np.array(added, dtype=np.int64), removed
    )


def _block_bits(data, block):
    """One of the plan's blocks as dense 0/1 columns of its PVM's words."""
    words = data.words[:, block.pvm_index - data.plan.pvm_span.start]
    return packing.unpack_bits(words, block.width)[:, block.start : block.stop]


def _materialize(unfoldings):
    """Every partition's blocks as dense bits, per mode."""
    return [
        [
            [_block_bits(data, block) for block in data.plan.blocks]
            for data in rdd.collect()
        ]
        for rdd in unfoldings.rdds
    ]


def _assert_blocks_equal(got, want):
    assert len(got) == len(want)
    for got_mode, want_mode in zip(got, want):
        assert len(got_mode) == len(want_mode)
        for got_parts, want_parts in zip(got_mode, want_mode):
            assert len(got_parts) == len(want_parts)
            for got_words, want_words in zip(got_parts, want_parts):
                np.testing.assert_array_equal(got_words, want_words)


def _patched_vs_rebuilt(
    tensor, deltas, n_partitions=3, memory_budget=None, backend="serial",
    **runtime_options,
):
    """Patch through ``deltas`` and compare against a rebuild per epoch."""
    cluster = ClusterConfig(
        n_machines=2, cores_per_machine=1, memory_budget=memory_budget,
        backend=backend, n_workers=2 if backend == "process" else None,
    )
    runtime = SimulatedRuntime(cluster, **runtime_options)
    try:
        live = PartitionedUnfoldings.prepare(tensor, n_partitions, runtime)
        current = tensor
        for delta in deltas:
            current = current.apply_delta(delta)
            held = [rdd.collect() for rdd in live.rdds]
            live.patch(delta)
            if backend == "serial" and memory_budget is None:
                # In place: the driver's cached slabs are the ones written.
                for parts, rdd in zip(held, live.rdds):
                    for data, now in zip(parts, rdd.collect()):
                        assert now is data
            rebuilt = PartitionedUnfoldings.prepare(
                current, n_partitions, runtime
            )
            try:
                _assert_blocks_equal(
                    _materialize(live), _materialize(rebuilt)
                )
            finally:
                rebuilt.unpersist()
        assert live.epoch == len(deltas)
        live.unpersist()
    finally:
        runtime.close()
    return runtime


class _FailPatchesAfterWriting(FaultInjector):
    """Fails the first attempt of every patch task, after it has written."""

    def should_fail(self, stage, partition, attempt):
        return stage.startswith("patchPartitions") and attempt == 0


def _chained_deltas(tensor, seeds):
    deltas, current = [], tensor
    for seed in seeds:
        deltas.append(_random_delta(current, seed=seed))
        current = current.apply_delta(deltas[-1])
    return deltas


class TestPatchMatchesRebuild:
    def test_mixed_delta(self):
        tensor = _random_tensor(seed=0)
        _patched_vs_rebuilt(tensor, [_random_delta(tensor, seed=1)])

    def test_adds_only(self):
        tensor = _random_tensor(seed=2)
        delta = _random_delta(tensor, seed=3, n_adds=5, n_removes=0)
        _patched_vs_rebuilt(tensor, [delta])

    def test_removes_only(self):
        tensor = _random_tensor(seed=4)
        delta = _random_delta(tensor, seed=5, n_adds=0, n_removes=5)
        _patched_vs_rebuilt(tensor, [delta])

    def test_empty_delta_is_noop_with_zero_stages(self):
        tensor = _random_tensor(seed=6)
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=1)
        )
        try:
            live = PartitionedUnfoldings.prepare(tensor, 3, runtime)
            before = _materialize(live)
            stages_before = runtime.metrics.value("stages_total")
            live.patch(TensorDelta.empty(tensor.shape))
            assert runtime.metrics.value("stages_total") == stages_before
            assert live.epoch == 1
            _assert_blocks_equal(_materialize(live), before)
            live.unpersist()
        finally:
            runtime.close()

    def test_chained_epochs(self):
        tensor = _random_tensor(seed=7)
        deltas = []
        current = tensor
        for seed in range(3):
            delta = _random_delta(current, seed=100 + seed)
            deltas.append(delta)
            current = current.apply_delta(delta)
        _patched_vs_rebuilt(tensor, deltas)

    def test_budgeted_mmap_path(self):
        tensor = _random_tensor(seed=8)
        deltas = []
        current = tensor
        for seed in range(2):
            delta = _random_delta(current, seed=200 + seed)
            deltas.append(delta)
            current = current.apply_delta(delta)
        _patched_vs_rebuilt(tensor, deltas, memory_budget=1)

    @pytest.mark.parametrize("memory_budget", [None, 1])
    def test_process_pool_matches_rebuild(self, memory_budget):
        # The slab-bit payloads cross the pipes to two pool workers.
        tensor = _random_tensor(seed=14)
        deltas = [_random_delta(tensor, seed=15)]
        deltas.append(_random_delta(tensor.apply_delta(deltas[0]), seed=16))
        _patched_vs_rebuilt(
            tensor, deltas, memory_budget=memory_budget, backend="process"
        )

    @pytest.mark.parametrize("memory_budget", [None, 1 << 30])
    def test_patch_writes_in_place(self, memory_budget):
        # A budget large enough that nothing spills keeps the partitions
        # as read-only views of the flushed memmap until a patch copies
        # them; without one they are owned, writable slabs.
        tensor = _random_tensor(seed=12)
        delta = _random_delta(tensor, seed=13, n_adds=2, n_removes=1)
        undo = TensorDelta(tensor.shape, delta.removed, delta.added)
        cluster = ClusterConfig(
            n_machines=2, cores_per_machine=1, memory_budget=memory_budget
        )
        with SimulatedRuntime(cluster) as runtime:
            live = PartitionedUnfoldings.prepare(tensor, 3, runtime)
            for epoch, change in enumerate((delta, undo)):
                before = [rdd.collect() for rdd in live.rdds]
                arrays = [[d.words for d in parts] for parts in before]
                copies = [[np.array(w) for w in words] for words in arrays]
                n_stages = len(runtime.stages)
                live.patch(change)
                patches = runtime.stages[n_stages:]
                touched = 0
                for mode, rdd in enumerate(live.rdds):
                    after = rdd.collect()
                    for old, words, copy, new in zip(
                        before[mode], arrays[mode], copies[mode], after
                    ):
                        if np.array_equal(new.words, copy):
                            # Untouched: not written, not even copied.
                            assert new is old and new.words is words
                            continue
                        touched += 1
                        assert new.words.flags.writeable
                        if memory_budget is not None and epoch == 0:
                            # A read-only view is copied once ...
                            assert not words.flags.writeable
                            assert not np.shares_memory(new.words, words)
                        else:
                            # ... and an owned slab is written in place.
                            assert np.shares_memory(new.words, words)
                # One stage dispatches only the touched partitions of every
                # mode.
                assert touched >= 3
                assert [stage.name for stage in patches] == ["patchPartitions"]
                assert patches[0].n_tasks == touched
            live.unpersist()

    @pytest.mark.parametrize("memory_budget", [None, 1])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_retried_patch_tasks_are_idempotent(self, backend, memory_budget):
        # Each patch task writes, fails, and is retried on what it wrote:
        # setting and clearing bits twice gives the bits of once.
        tensor = _random_tensor(seed=16)
        runtime = _patched_vs_rebuilt(
            tensor, _chained_deltas(tensor, (17, 18)),
            memory_budget=memory_budget, backend=backend,
            fault_injector=_FailPatchesAfterWriting(max_retries=0),
            retry_policy=RetryPolicy(max_retries=1, seed=0),
        )
        failures = runtime.task_failures
        assert set(failures) == {"patchPartitions"}
        assert failures["patchPartitions"] > 0

    def test_spilled_patched_partitions_reload_patched(self):
        # A budget that holds one mode's slabs at a time: every patch pages
        # its mode in and spills another.  A patched mode spills touched
        # slabs by value and untouched ones by reference to the flushed
        # unfolding; once a later epoch pages it in and patches it again,
        # its old spill file must not come back.
        tensor = _random_tensor(seed=19, shape=(12, 11, 10))
        plain = ClusterConfig(n_machines=2, cores_per_machine=1)
        with SimulatedRuntime(replace(plain, memory_budget=1 << 30)) as probe:
            sizes = [
                estimate_bytes(rdd.node.cached)
                for rdd in PartitionedUnfoldings.prepare(tensor, 3, probe).rdds
            ]
        assert max(sizes) < 2 * min(sizes)
        cluster = replace(plain, memory_budget=max(sizes))
        with SimulatedRuntime(cluster) as runtime, SimulatedRuntime(
            plain
        ) as reference:
            live = PartitionedUnfoldings.prepare(tensor, 3, runtime)
            current = tensor
            for delta in _chained_deltas(tensor, (20, 21, 22)):
                current = current.apply_delta(delta)
                live.patch(delta)
                rebuilt = PartitionedUnfoldings.prepare(current, 3, reference)
                _assert_blocks_equal(_materialize(live), _materialize(rebuilt))
                rebuilt.unpersist()
            budget = runtime.storage.budget
            assert budget.spill_events > 3 and budget.load_events > 3
            live.unpersist()

    def test_budget_path_matches_default_path(self):
        tensor = _random_tensor(seed=9)
        blocks = {}
        for budget in (None, 1):
            runtime = SimulatedRuntime(
                ClusterConfig(
                    n_machines=2, cores_per_machine=1, memory_budget=budget
                )
            )
            try:
                unfoldings = PartitionedUnfoldings.prepare(
                    tensor, 3, runtime
                )
                blocks[budget] = _materialize(unfoldings)
                unfoldings.unpersist()
            finally:
                runtime.close()
        _assert_blocks_equal(blocks[1], blocks[None])

    def test_shape_mismatch_rejected(self):
        tensor = _random_tensor(seed=10)
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=1)
        )
        try:
            live = PartitionedUnfoldings.prepare(tensor, 3, runtime)
            with pytest.raises(ValueError, match="shape"):
                live.patch(TensorDelta.empty((2, 2, 2)))
            live.unpersist()
        finally:
            runtime.close()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_delta_streams(self, seed):
        rng = np.random.default_rng(seed)
        tensor = _random_tensor(seed=rng.integers(1 << 31))
        deltas = []
        current = tensor
        for _ in range(2):
            delta = _random_delta(
                current,
                seed=rng.integers(1 << 31),
                n_adds=int(rng.integers(0, 5)),
                n_removes=int(rng.integers(0, 5)),
            )
            deltas.append(delta)
            current = current.apply_delta(delta)
        _patched_vs_rebuilt(tensor, deltas)


class TestBaselineError:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_full_recount(self, seed):
        rng = np.random.default_rng(seed)
        tensor = _random_tensor(seed=rng.integers(1 << 31))
        factors = random_factors(
            tensor.shape, rank=3, density=0.4,
            rng=np.random.default_rng(rng.integers(1 << 31)),
        )
        reconstruction = tensor_from_factors(factors)
        error = tensor.hamming_distance(reconstruction)
        delta = _random_delta(tensor, seed=rng.integers(1 << 31))
        new_tensor = tensor.apply_delta(delta)
        assert baseline_error_after_delta(error, delta, factors) == (
            new_tensor.hamming_distance(reconstruction)
        )
        # Factors unpacked once by the caller read the same.
        dense = [factor.to_dense() for factor in factors]
        assert baseline_error_after_delta(error, delta, dense) == (
            new_tensor.hamming_distance(reconstruction)
        )
        assert dirty_columns_for_delta(delta, dense) == (
            dirty_columns_for_delta(delta, factors)
        )

    def test_empty_delta_keeps_error(self):
        tensor = _random_tensor(seed=11)
        factors = random_factors(
            tensor.shape, rank=2, density=0.4, rng=np.random.default_rng(1)
        )
        error = tensor.hamming_distance(tensor_from_factors(factors))
        assert baseline_error_after_delta(
            error, TensorDelta.empty(tensor.shape), factors
        ) == error


def _full_update(tensor, factors, mode, rank, runtime, dirty=None):
    """One mode's update_factor over freshly partitioned unfoldings."""
    from repro.core.decompose import (
        MODE_FACTOR_ROLES,
        prepare_partitioned_unfoldings,
    )

    config = DbtfConfig(rank=rank, n_partitions=2)
    target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
    mode_rdds = prepare_partitioned_unfoldings(tensor, 2, runtime)
    try:
        if dirty is None:
            updated, _ = update_factor(
                mode_rdds[mode],
                factors[target_index],
                factors[outer_index],
                factors[inner_index],
                config,
                runtime,
            )
            return updated
        updated, _, _ = update_factor(
            mode_rdds[mode],
            factors[target_index],
            factors[outer_index],
            factors[inner_index],
            config,
            runtime,
            dirty_columns=dirty,
        )
        return updated
    finally:
        for rdd in mode_rdds:
            rdd.unpersist()


class TestDirtyColumnSoundness:
    """Clean columns keep their decisions: a delta outside a component's
    support rectangle shifts both candidate errors equally, so skipping
    clean columns (with escalation enabled) must reproduce the full
    sweep's outcome exactly when starting from a converged fixed point."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_scoped_sweep_matches_full_sweep_from_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        tensor, _ = planted_tensor(
            (8, 7, 6), rank=2, factor_density=0.4,
            rng=np.random.default_rng(rng.integers(1 << 31)),
        )
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=1)
        )
        try:
            # Reach a per-mode fixed point first: iterate full sweeps.
            factors = random_factors(
                tensor.shape, rank=2, density=0.4,
                rng=np.random.default_rng(rng.integers(1 << 31)),
            )
            factors = list(factors)
            for _ in range(3):
                for mode in range(3):
                    updated = _full_update(
                        tensor, tuple(factors), mode, 2, runtime
                    )
                    factors[mode] = updated
            factors = tuple(factors)

            delta = _random_delta(tensor, seed=int(rng.integers(1 << 31)))
            new_tensor = tensor.apply_delta(delta)
            dirty = dirty_columns_for_delta(delta, factors)
            for mode in range(3):
                full = _full_update(
                    new_tensor, factors, mode, 2, runtime
                )
                scoped = _full_update(
                    new_tensor, factors, mode, 2, runtime,
                    dirty=dirty[mode],
                )
                np.testing.assert_array_equal(scoped.words, full.words)
        finally:
            runtime.close()

    def test_empty_delta_marks_nothing_dirty(self):
        tensor = _random_tensor(seed=12)
        factors = random_factors(
            tensor.shape, rank=3, density=0.4, rng=np.random.default_rng(2)
        )
        assert dirty_columns_for_delta(
            TensorDelta.empty(tensor.shape), factors
        ) == [set(), set(), set()]


def _shuffle_rows(runtime):
    """The SHUFFLE ledger broken down by stage, from the transfer counter."""
    counters = runtime.metrics.counters().get("transfer_bytes_total", {})
    rows = {}
    for labels, value in counters.items():
        labels = dict(labels)
        if labels["kind"] == TransferKind.SHUFFLE:
            rows[labels["stage"]] = int(value)
    return rows


class TestLemma6ShuffleLedger:
    """Algorithm 3 is the batch path's only SHUFFLE writer (Lemma 6).

    Each mode's partitioning is charged Lemma 6's model of 24 bytes per
    nonzero, a (row, block, offset) int64 triple.  The ledger charges that
    model while each nonzero travels as one 4-byte slab-bit index.  So a
    run's SHUFFLE rows are exactly the three ``partitionUnfolding[m]``
    stages, 24 bytes x nnz each: 72 x nnz in all, whatever the iteration
    count.  An epoch advance adds only the ``patchUnfolding[m]`` rows.
    """

    PARTITION_ROWS = {f"partitionUnfolding[{mode}]" for mode in range(3)}

    @staticmethod
    def _cluster(backend, budgeted, tmp_path):
        return ClusterConfig(
            n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
            memory_budget=(1 << 20) if budgeted else None,
            spill_dir=str(tmp_path) if budgeted else None,
        )

    @pytest.mark.parametrize("budgeted", [False, True])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_batch_rows_are_exactly_partitioning(
        self, backend, budgeted, tmp_path
    ):
        tensor = _random_tensor(seed=30, shape=(9, 8, 7))
        with SimulatedRuntime(
            self._cluster(backend, budgeted, tmp_path)
        ) as runtime:
            assert (runtime.unfolding_storage() is not None) == budgeted
            dbtf(tensor, rank=2, seed=0, n_partitions=3, max_iterations=3,
                 runtime=runtime)
            rows = _shuffle_rows(runtime)
            assert set(rows) == self.PARTITION_ROWS
            assert all(n_bytes == 24 * tensor.nnz for n_bytes in rows.values())
            assert runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE) == (
                72 * tensor.nnz
            )

    @pytest.mark.parametrize("budgeted", [False, True])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_advance_adds_only_patch_rows(self, backend, budgeted, tmp_path):
        tensor = _random_tensor(seed=31, shape=(9, 8, 7))
        delta = _random_delta(tensor, seed=32)
        config = DbtfConfig(
            rank=2, seed=0, n_partitions=3, max_iterations=3,
            cluster=self._cluster(backend, budgeted, tmp_path),
        )
        with FactorizationSession(tensor, config) as session:
            session.factorize()
            before = _shuffle_rows(session.runtime)
            assert set(before) == self.PARTITION_ROWS
            assert sum(before.values()) == 72 * tensor.nnz
            session.advance(delta)
            after = _shuffle_rows(session.runtime)
        added = set(after) - set(before)
        assert added == {f"patchUnfolding[{mode}]" for mode in range(3)}
        assert all(after[row] > 0 for row in added)
        assert {row: after[row] for row in before} == before
