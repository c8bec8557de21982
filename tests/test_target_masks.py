"""The worker-side target masks of the column tasks.

Each column task needs the target factor's row masks with its column
cleared and every earlier column of the sweep set from its packed delta.
A worker keeps the current masks in one ``worker_state`` slot keyed by the
factors broadcast, the column and the applied deltas: every partition of a
stage shares one build, and the next column applies only the newest delta
to a copy.  The masks must equal a from-scratch replay whatever the call
order, be built once per key under concurrency, and never outlive their
runtime.
"""

import gc
import sys
import time
import weakref

import numpy as np
import pytest

from repro.bitops import BitMatrix, packing
from repro.core import DbtfConfig, dbtf, update_factor
from repro.core import update as update_module
from repro.core.incremental import prepare_mode_partitions
from repro.core.update import _MASKS_SLOT, _target_masks
from repro.distengine import ClusterConfig, RuntimeFactory, SimulatedRuntime
from repro.distengine import broadcast
from repro.tensor import MODE_FACTOR_ROLES, planted_tensor

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


def _replayed(words, column, columns):
    """The masks by definition: ``column`` cleared, ``columns`` set."""
    masks = words.copy()
    packing.set_bit_column(masks, column, np.zeros(words.shape[0], np.uint8))
    for applied, bits in columns:
        packing.set_bit_column(masks, applied, bits)
    return masks


class TestDerivation:
    @pytest.fixture
    def sources(self, monkeypatch):
        """Records the words each mask build starts from."""
        seen = []
        clear = update_module._masks_with_bit_cleared

        def recording(words, column):
            seen.append(words)
            return clear(words, column)

        monkeypatch.setattr(update_module, "_masks_with_bit_cleared", recording)
        return seen

    def test_chain_derives_and_other_calls_rebuild(self, sources):
        rng = np.random.default_rng(7)
        target = BitMatrix.random(37, WIDE_RANK, 0.5, rng)
        other = BitMatrix.random(37, WIDE_RANK, 0.5, rng)
        with SimulatedRuntime(_cluster("serial")) as runtime:
            handles = {
                name: runtime.broadcast([matrix.words])
                for name, matrix in (("target", target), ("other", other))
            }
            bits = {
                column: rng.integers(0, 2, 37).astype(np.uint8)
                for column in range(WIDE_RANK)
            }
            deltas = {
                column: runtime.broadcast(np.packbits(bits[column]))
                for column in bits
            }

            def call(name, column, applied):
                handle = handles[name]
                masks = _target_masks(
                    handle, column,
                    tuple((index, deltas[index]) for index in applied),
                )
                base = (target if name == "target" else other).words
                want = _replayed(
                    base, column, [(index, bits[index]) for index in applied]
                )
                np.testing.assert_array_equal(masks, want)
                assert not masks.flags.writeable
                source = sources[-1]
                return "base" if source is handle.value[0] else "previous"

            assert call("target", 0, []) == "base"
            assert call("target", 1, [0]) == "previous"
            # The same key again is served from the slot: no build.
            built = len(sources)
            call("target", 1, [0])
            assert len(sources) == built
            # Across the word boundary, and a scoped sweep that skipped
            # columns 2..65: the preceding evaluated column is still 1.
            assert call("target", 66, [0, 1]) == "previous"
            assert call("target", 67, [0, 1, 66]) == "previous"
            # Not the next column: the slot holds 67, this follows 68.
            assert call("target", 69, [0, 1, 66, 68]) == "base"
            # Same column and deltas from another update's factors.
            assert call("other", 68, [0, 1, 66, 67]) == "base"
            # Back to the first update, next in its own chain — but the
            # slot now holds the other update's masks.
            assert call("target", 68, [0, 1, 66, 67]) == "base"

    def test_delta_columns_are_part_of_the_key(self, sources):
        rng = np.random.default_rng(8)
        target = BitMatrix.random(9, RANK, 0.5, rng)
        zeros = np.zeros(9, dtype=np.uint8)
        with SimulatedRuntime(_cluster("serial")) as runtime:
            handle = runtime.broadcast([target.words])
            # Equal payloads share a content id; only the applied column
            # tells these two tasks apart.
            delta = runtime.broadcast(np.packbits(zeros))
            for applied in (1, 2):
                masks = _target_masks(handle, 3, ((applied, delta),))
                np.testing.assert_array_equal(
                    masks, _replayed(target.words, 3, [(applied, zeros)])
                )


class TestSharedBuild:
    def test_thread_stress_builds_once_per_key(
        self, tensor, factors, monkeypatch
    ):
        target, outer, inner = (factors[i] for i in MODE_FACTOR_ROLES[0])
        config = DbtfConfig(rank=RANK, n_partitions=3 * PARTITIONS)

        def run(backend, workers):
            runtime = SimulatedRuntime(_cluster(backend, workers))
            try:
                rdd, _ = prepare_mode_partitions(
                    tensor, 0, 3 * PARTITIONS, runtime
                )
                rdd = rdd.persist()
                return [
                    update_factor(
                        rdd, target, outer, inner, config, runtime,
                        dirty_columns=dirty,
                    )
                    for dirty in (None, {1, 3})
                ]
            finally:
                runtime.close()

        keys = []
        worker_state = update_module.worker_state

        def recording(scope, name, key, build):
            def slow_build(previous):
                if name == _MASKS_SLOT:
                    keys.append(key)
                    time.sleep(0.01)  # widen the window for a racing build
                return build(previous)

            return worker_state(scope, name, key, slow_build)

        monkeypatch.setattr(update_module, "worker_state", recording)
        expected = run("serial", None)
        serial_keys, keys[:] = list(keys), []
        # More threads than cores and frequent switches, so a second build
        # of one key would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run("thread", 8)
        finally:
            sys.setswitchinterval(interval)
        # One build per evaluated column of both updates, as on serial.
        assert len(set(keys)) == len(keys) > RANK
        assert keys == serial_keys
        for got_result, want_result in zip(got, expected):
            assert got_result[0].words.tobytes() == want_result[0].words.tobytes()
            assert got_result[1:] == want_result[1:]


def _masks_count(index, _items):
    """Module-level task: this worker's target-mask slots."""
    return [sum(key[1:] == (_MASKS_SLOT,) for key in broadcast._STORE)]


class TestLifecycle:
    @pytest.mark.parametrize("backend, workers", [("serial", None), ("thread", 2)])
    def test_closed_scope_keeps_no_masks(self, tensor, backend, workers):
        runtime = SimulatedRuntime(_cluster(backend, workers))
        dbtf(tensor, config=DbtfConfig(
            rank=3, max_iterations=2, seed=1, n_partitions=PARTITIONS
        ), runtime=runtime)
        _, masks = broadcast._STORE[(runtime.scope, _MASKS_SLOT)]
        alive = weakref.ref(masks)
        del masks
        runtime.close()
        gc.collect()
        assert alive() is None
        assert not any(key[0] == runtime.scope for key in broadcast._STORE)

    def test_leased_pool_returns_to_baseline(self, tensor):
        with RuntimeFactory(_cluster("process", 2)) as factory:
            warm = factory.lease()
            probe = warm.runtime.parallelize([0, 1], n_partitions=2)
            probe.map_partitions_with_index(_masks_count).collect()
            warm.close()
            baseline = factory.backend.resident_entries()
            lease = factory.lease()
            dbtf(tensor, config=DbtfConfig(
                rank=3, max_iterations=2, seed=1, n_partitions=PARTITIONS
            ), runtime=lease.runtime)
            probe = lease.runtime.parallelize([0, 1], n_partitions=2)
            assert probe.map_partitions_with_index(_masks_count).collect() == [1, 1]
            lease.close()
            assert factory.backend.resident_entries() == baseline
