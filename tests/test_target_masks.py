"""The worker-side target masks of the round tasks, in key form.

Each round task needs the cache keys of its (row, column) pairs: the
target rows' masks — the factors broadcast's in round 1, the pending
rows' accepted bits in later rounds — with each pair's column cleared.
A worker keeps them in one ``worker_state`` slot keyed by the factors
broadcast, the round's ``columnUpdate`` broadcast and its columns, so
every partition of a stage shares one build.  The keys must equal a
from-scratch build, be built once per key, and never outlive their
runtime.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, RowSummationCache, dbtf
from repro.core import update as update_module
from repro.core.update import _KEYS_SLOT, _round_keys, kernel_tables
from repro.distengine import ClusterConfig, RuntimeFactory, SimulatedRuntime
from repro.distengine import broadcast
from repro.tensor import planted_tensor

SHAPE = (12, 13, 14)
PARTITIONS = 5
RANK = 5
#: Past one 64-bit word, so masks span two words per row.
WIDE_RANK = 70


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


def _cluster(backend, workers=None):
    return ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=workers
    )


class TestDerivation:
    def test_delta_columns_are_part_of_the_key(self, monkeypatch):
        rng = np.random.default_rng(8)
        target = BitMatrix.random(9, WIDE_RANK, 0.5, rng)
        outer = BitMatrix.random(4, WIDE_RANK, 0.5, rng)
        inner = BitMatrix.random(3, WIDE_RANK, 0.5, rng)
        tables = kernel_tables(RowSummationCache(inner, 10), outer.words)
        builds = []
        build = update_module.column_keys

        def counting(*args, **kwargs):
            builds.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(update_module, "column_keys", counting)
        rows = np.array([0, 5, 8])
        resume = np.array([3, 0, 66])
        with SimulatedRuntime(_cluster("serial")) as runtime:
            handle = runtime.broadcast([target.words])
            # Equal payloads share a content id; only the columns tell
            # these rounds apart.
            deltas = [
                runtime.broadcast((rows, resume, target.words[rows]))
                for _ in range(2)
            ]
            assert deltas[0].content_id == deltas[1].content_id
            for delta, columns in [
                (None, [2, 66]), (None, [2, 66]), (None, [1, 66]),
                (deltas[0], [1, 66, 67]), (deltas[1], [1, 66, 67]),
                (deltas[1], [66, 67]),
            ]:
                mask = sum(1 << column for column in columns)
                keys = _round_keys(handle, delta, mask, tables)
                if delta is None:
                    want = build(tables, target.words, columns)
                else:
                    want = build(
                        tables, target.words[rows], columns, rows=rows,
                        resume=resume,
                    )
                np.testing.assert_array_equal(keys.columns, want.columns)
                np.testing.assert_array_equal(keys.rows, want.rows)
                np.testing.assert_array_equal(keys.pairs, want.pairs)
                for got, expected in zip(keys.row_keys, want.row_keys):
                    np.testing.assert_array_equal(got, expected)
        # A repeated key is served from the slot: four builds.
        assert builds == [[2, 66], [1, 66], [1, 66, 67], [66, 67]]


def _keys_count(index, _items):
    """Module-level task: this worker's round-key slots."""
    return [sum(key[1:] == (_KEYS_SLOT,) for key in broadcast._STORE)]


class TestLifecycle:
    @pytest.mark.parametrize("backend, workers", [("serial", None)])
    def test_closed_scope_keeps_no_masks(self, tensor, backend, workers):
        runtime = SimulatedRuntime(_cluster(backend, workers))
        dbtf(tensor, config=DbtfConfig(
            rank=3, max_iterations=2, seed=1, n_partitions=PARTITIONS
        ), runtime=runtime)
        _, keys = broadcast._STORE[(runtime.scope, _KEYS_SLOT)]
        alive = weakref.ref(keys.rows)
        del keys
        runtime.close()
        gc.collect()
        assert alive() is None
        assert not any(key[0] == runtime.scope for key in broadcast._STORE)

    def test_leased_pool_returns_to_baseline(self, tensor):
        with RuntimeFactory(_cluster("process", 2)) as factory:
            warm = factory.lease()
            probe = warm.runtime.parallelize([0, 1], n_partitions=2)
            probe.map_partitions_with_index(_keys_count).collect()
            warm.close()
            baseline = factory.backend.resident_entries()
            lease = factory.lease()
            dbtf(tensor, config=DbtfConfig(
                rank=3, max_iterations=2, seed=1, n_partitions=PARTITIONS
            ), runtime=lease.runtime)
            probe = lease.runtime.parallelize([0, 1], n_partitions=2)
            assert probe.map_partitions_with_index(_keys_count).collect() == [1, 1]
            lease.close()
            assert factory.backend.resident_entries() == baseline
