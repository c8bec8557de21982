"""The per-worker row-summation cache of the column stages.

Each worker builds one :class:`~repro.core.RowSummationCache` per factors
broadcast, keeps its :class:`~repro.core.update.KernelTables`, and every
partition it holds shares them.  That must stay
invisible: the shared-cache path gives the same per-partition errors as
partitions evaluated against private caches, on every backend, with and without
a memory budget — including partitions whose edges cut PVM blocks, which
the e2e shapes never do.  The cache must also never outlive its runtime.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, RowSummationCache, dbtf
from repro.core.incremental import prepare_mode_partitions
from repro.core import update as update_module
from repro.core.update import (
    _TABLES_SLOT,
    _ColumnRoundTask,
    KernelTables,
    column_errors,
    column_keys,
    kernel_tables,
    update_factor,
)
from repro.distengine import ClusterConfig, RuntimeFactory, SimulatedRuntime
from repro.distengine import broadcast
from repro.incremental import FactorizationSession
from repro.tensor import MODE_FACTOR_ROLES, TensorDelta, planted_tensor

from .sweep_oracle import basis, predicted_rounds, sweep, unfolded

#: 5 partitions over the 13 x 14 = 182 unfolded columns of mode 0 cut
#: PVM blocks (width 13) at every partition boundary.
SHAPE = (12, 13, 14)
PARTITIONS = 5
RANK = 5
#: Two cache groups, so lookups OR entries of several tables.
GROUP_SIZE = 3

BACKENDS = [("serial", None), ("process", 2), ("process", 3)]


def _cluster(backend, workers, **overrides):
    return ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=workers,
        **overrides,
    )


@pytest.fixture(scope="module")
def tensor():
    return planted_tensor(
        SHAPE, rank=3, factor_density=0.3, rng=np.random.default_rng(11),
        additive_noise=0.05,
    )[0]


@pytest.fixture(scope="module")
def factors():
    rng = np.random.default_rng(4)
    return [BitMatrix.random(dim, RANK, 0.4, rng) for dim in SHAPE]


def _roles(factors, mode=0):
    target, outer, inner = MODE_FACTOR_ROLES[mode]
    return factors[target], factors[outer], factors[inner]


def _config():
    return DbtfConfig(
        rank=RANK, n_partitions=PARTITIONS, cache_group_size=GROUP_SIZE
    )


def _pending(target):
    """A later round's pending rows, their resume columns and their
    accepted bits (one flipped bit each)."""
    rows = np.array([1, 4, 7, 10])
    resume = np.array([1, 3, 0, 4])
    masks = target.words[rows].copy()
    masks[:, 0] ^= np.uint64(1) << resume.astype(np.uint64)
    return rows, resume, masks


def _shared_path(tensor, factors, backend, workers, budget):
    """Per-partition errors of two round tasks, then one full update."""
    runtime = SimulatedRuntime(
        _cluster(backend, workers, memory_budget=budget)
    )
    try:
        rdd, plans = prepare_mode_partitions(tensor, 0, PARTITIONS, runtime)
        rdd = rdd.persist()
        target, outer, inner = _roles(factors)
        handle = runtime.broadcast([target.words, outer.words, inner.words])
        pending = runtime.broadcast(_pending(target), name="columnUpdate")
        every_column = (1 << RANK) - 1
        per_partition = [
            rdd.map(_ColumnRoundTask(
                handle, delta, every_column, RANK, GROUP_SIZE, seed
            )).collect()
            for delta, seed in ((None, True), (pending, False))
        ]
        updated, error = update_factor(
            rdd, target, outer, inner, _config(), runtime
        )
        return plans, per_partition, (updated.words.tobytes(), error)
    finally:
        runtime.close()


def _private_path(tensor, factors):
    """The same update over partitions evaluated against private caches."""
    with SimulatedRuntime(_cluster("serial", None)) as runtime:
        rdd, _ = prepare_mode_partitions(tensor, 0, PARTITIONS, runtime)
        partitions = rdd.collect()
    target, outer, inner = _roles(factors)
    private = [
        kernel_tables(RowSummationCache(inner, GROUP_SIZE), outer.words)
        for _ in partitions
    ]

    def errors(masks, columns, seed, **pending):
        """Each partition's task result: the per-pair error change, plus
        the candidate-0 total when seeding (every block)."""
        results = []
        for data, tables in zip(partitions, private):
            keys = column_keys(tables, masks, columns, **pending)
            change, zero = column_errors(data, tables, keys, seed=seed)
            results.append((change, int(zero.sum())) if seed else change)
        return results

    # The two round tasks: round 1 seeds its update (every block of its
    # first column), a later round evaluates pending rows from their
    # resume columns (active blocks only).
    every_column = list(range(RANK))
    yield errors(target.words, every_column, True)
    rows, resume, masks = _pending(target)
    yield errors(masks, every_column, False, rows=rows, resume=resume)
    # Algorithm 4 column by column, one single-column evaluation each.
    updated = target.copy()
    error = None
    for column in range(RANK):
        per_partition = errors(updated.words, column, error is None)
        current = updated.column(column)
        if error is None:
            change = sum(partial for partial, _ in per_partition)
            error = sum(total for _, total in per_partition)
            error += int(change[current != 0].sum())
        else:
            change = sum(per_partition)
        error += int(np.minimum(change, 0).sum())
        error -= int(change[current != 0].sum())
        updated.set_column(column, (change < 0).astype(np.uint8))
    yield updated.words.tobytes(), error


def _assert_errors_equal(got, want):
    assert len(got) == len(want)
    for got_result, want_result in zip(got, want):
        if isinstance(want_result, tuple):
            (got_result, got_total), (want_result, want_total) = (
                got_result, want_result
            )
            assert got_total == want_total
        np.testing.assert_array_equal(got_result, want_result)


class TestEdgeBlocks:
    @pytest.mark.parametrize("budget", [None, 4096])
    def test_backends_match_private_caches(self, tensor, factors, budget):
        runs = {
            (backend, workers): _shared_path(
                tensor, factors, backend, workers, budget
            )
            for backend, workers in BACKENDS
        }
        plans = runs[BACKENDS[0]][0]
        edges = sum(not block.is_full for plan in plans for block in plan.blocks)
        assert edges >= 2 * (PARTITIONS - 1)
        *private_errors, private_update = _private_path(tensor, factors)
        for key, (_, per_partition, update) in runs.items():
            assert update == private_update, key
            for got, want in zip(per_partition, private_errors):
                _assert_errors_equal(got, want)

    def test_tasks_share_memoized_slices(self, tensor, factors, monkeypatch):
        seen = []
        builds = []
        key_builds = []
        evaluate = update_module.column_errors
        build = update_module.RowSummationCache
        build_keys = update_module.column_keys

        def recording(data, tables, keys, *, seed=False):
            seen.append((tables, keys))
            return evaluate(data, tables, keys, seed=seed)

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        def counting_keys(*args, **kwargs):
            key_builds.append(args)
            return build_keys(*args, **kwargs)

        monkeypatch.setattr(update_module, "column_errors", recording)
        monkeypatch.setattr(update_module, "RowSummationCache", counting_build)
        monkeypatch.setattr(update_module, "column_keys", counting_keys)
        runtime = SimulatedRuntime(_cluster("serial", None))
        try:
            rdd, _ = prepare_mode_partitions(tensor, 0, 3 * PARTITIONS, runtime)
            target, outer, inner = _roles(factors)
            update_factor(rdd.persist(), target, outer, inner, _config(), runtime)
            _, tables = broadcast._STORE[(runtime.scope, _TABLES_SLOT)]
        finally:
            runtime.close()
        _, _, swept, changes = sweep(
            unfolded(tensor.to_dense(), 0), target.to_dense(),
            basis(outer.to_dense(), inner.to_dense()),
        )
        rounds = predicted_rounds(swept, set(swept), changes)
        assert rounds >= 2
        assert len(seen) == rounds * 3 * PARTITIONS
        # One cache build and one set of kernel tables for the whole
        # update, one key build per round, and every task got the shared
        # ones.
        assert len(builds) == 1
        assert all(held is tables for held, _ in seen)
        assert len(key_builds) == rounds
        assert len({id(keys) for _, keys in seen}) == rounds


def _cache_count(index, _items):
    """Module-level task: the kernel tables in this worker's store."""
    caches = sum(
        isinstance(value, tuple) and len(value) == 2
        and isinstance(value[1], KernelTables)
        for value in broadcast._STORE.values()
    )
    return [caches]


def _caches_per_worker(runtime, n_workers):
    probe = runtime.parallelize(list(range(n_workers)), n_partitions=n_workers)
    return probe.map_partitions_with_index(_cache_count).collect()


class TestLifecycle:
    def test_leased_pool_returns_to_baseline(self, tensor):
        with RuntimeFactory(_cluster("process", 2)) as factory:
            warm = factory.lease()
            _caches_per_worker(warm.runtime, 2)
            warm.close()
            baseline = factory.backend.resident_entries()
            lease = factory.lease()
            dbtf(tensor, config=DbtfConfig(
                rank=3, max_iterations=2, seed=1, n_partitions=PARTITIONS
            ), runtime=lease.runtime)
            assert _caches_per_worker(lease.runtime, 2) == [1, 1]
            lease.close()
            assert factory.backend.resident_entries() == baseline

    @pytest.mark.parametrize("backend, workers", [("serial", None)])
    def test_closed_scope_keeps_no_cache(self, tensor, backend, workers):
        runtime = SimulatedRuntime(_cluster(backend, workers))
        dbtf(tensor, config=DbtfConfig(
            rank=3, max_iterations=2, seed=1, n_partitions=PARTITIONS
        ), runtime=runtime)
        _, tables = broadcast._STORE[(runtime.scope, _TABLES_SLOT)]
        alive = weakref.ref(tables.tables[0])
        del tables
        runtime.close()
        gc.collect()
        assert alive() is None
        assert not any(key[0] == runtime.scope for key in broadcast._STORE)

    def test_long_process_session_holds_one_cache_per_worker(self, tensor):
        rng = np.random.default_rng(3)
        present = np.ravel_multi_index(tensor.coords.T, tensor.shape)
        config = DbtfConfig(
            rank=3, n_partitions=PARTITIONS, seed=0, max_iterations=2,
            cluster=_cluster("process", 2),
        )
        with FactorizationSession(tensor, config) as session:
            session.factorize()
            for _ in range(20):
                absent = np.setdiff1d(np.arange(np.prod(tensor.shape)), present)
                removed = np.sort(rng.choice(present, 3, replace=False))
                added = np.sort(rng.choice(absent, 3, replace=False))
                present = np.union1d(np.setdiff1d(present, removed), added)
                session.advance(TensorDelta(tensor.shape, added, removed))
                assert max(_caches_per_worker(session.runtime, 2)) <= 1
