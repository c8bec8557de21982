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
import sys
import time
import weakref

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, RowSummationCache, dbtf
from repro.core.incremental import prepare_mode_partitions
from repro.core import update as update_module
from repro.core.update import (
    _TABLES_SLOT,
    _ColumnErrorsDeltaTask,
    _choose_column,
    KernelTables,
    _masks_with_bit_cleared,
    column_errors,
    column_keys,
    kernel_tables,
    update_factor,
)
from repro.distengine import ClusterConfig, RuntimeFactory, SimulatedRuntime
from repro.distengine import broadcast
from repro.incremental import FactorizationSession
from repro.tensor import MODE_FACTOR_ROLES, TensorDelta, planted_tensor

#: 5 partitions over the 13 x 14 = 182 unfolded columns of mode 0 cut
#: PVM blocks (width 13) at every partition boundary.
SHAPE = (12, 13, 14)
PARTITIONS = 5
RANK = 5
#: Two cache groups, so lookups OR entries of several tables.
GROUP_SIZE = 3

BACKENDS = [("serial", None), ("thread", 3), ("process", 2), ("process", 3)]


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


def _shared_path(tensor, factors, backend, workers, budget):
    """Per-partition errors of two column tasks, then one full update."""
    runtime = SimulatedRuntime(
        _cluster(backend, workers, memory_budget=budget)
    )
    try:
        rdd, plans = prepare_mode_partitions(tensor, 0, PARTITIONS, runtime)
        rdd = rdd.persist()
        target, outer, inner = _roles(factors)
        handle = runtime.broadcast([target.words, outer.words, inner.words])
        chosen = runtime.broadcast(np.packbits(target.column(0)))
        per_partition = [
            rdd.map(_ColumnErrorsDeltaTask(
                handle, column, deltas, RANK, GROUP_SIZE, seed
            )).collect()
            for column, deltas, seed in ((0, (), True), (1, ((0, chosen),), False))
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

    def errors(masks, column, seed):
        """Each partition's task result: the per-row error change, plus
        the candidate-0 total when seeding (every block)."""
        results = []
        for data, tables in zip(partitions, private):
            keys = column_keys(tables, masks, column)
            change, zero = column_errors(data, tables, keys, seed=seed)
            results.append((change, int(zero.sum())) if seed else change)
        return results

    # The two column tasks: column 0 seeds its update (every block),
    # column 1 after a delta that keeps column 0 (active blocks only).
    yield errors(_masks_with_bit_cleared(target.words, 0), 0, True)
    yield errors(_masks_with_bit_cleared(target.words, 1), 1, False)
    updated = target.copy()
    error = None
    for column in range(RANK):
        per_partition = errors(
            _masks_with_bit_cleared(updated.words, column), column,
            error is None,
        )
        current = updated.column(column)
        if error is None:
            change = sum(partial for partial, _ in per_partition)
            error = sum(total for _, total in per_partition)
            error += int(change[current != 0].sum())
        else:
            change = sum(per_partition)
        chosen, error = _choose_column(change, current, error)
        updated.set_column(column, chosen)
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

    def test_thread_tasks_share_memoized_slices(
        self, tensor, factors, monkeypatch
    ):
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
            time.sleep(0.01)  # widen the window for a racing second build
            return build(*args)

        def counting_keys(*args):
            key_builds.append(args[-1])
            time.sleep(0.001)
            return build_keys(*args)

        monkeypatch.setattr(update_module, "column_errors", recording)
        monkeypatch.setattr(update_module, "RowSummationCache", counting_build)
        monkeypatch.setattr(update_module, "column_keys", counting_keys)
        # More threads than cores and frequent switches, so a lost update
        # of a shared slot would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runtime = SimulatedRuntime(_cluster("thread", 8))
        try:
            rdd, _ = prepare_mode_partitions(tensor, 0, 3 * PARTITIONS, runtime)
            target, outer, inner = _roles(factors)
            update_factor(rdd.persist(), target, outer, inner, _config(), runtime)
            _, tables = broadcast._STORE[(runtime.scope, _TABLES_SLOT)]
        finally:
            runtime.close()
            sys.setswitchinterval(interval)
        assert len(seen) == RANK * 3 * PARTITIONS
        # One cache build and one set of kernel tables for the whole
        # update, one key build per column, and every task got the shared
        # ones.
        assert len(builds) == 1
        assert all(held is tables for held, _ in seen)
        assert sorted(key_builds) == list(range(RANK))
        assert len({id(keys) for _, keys in seen}) == RANK


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

    @pytest.mark.parametrize("backend, workers", [("serial", None), ("thread", 2)])
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
