"""Tests for the broadcast-handle comms plane.

The contract: ``runtime.broadcast`` returns a first-class, content-addressed
:class:`BroadcastHandle`; pickling a handle drops the value (workers resolve
it from the backend-local store or a spill file); task payloads that embed a
handle cost ~32 wire bytes instead of the value's full size; and the
delta-only factor-update path produces bit-identical factors and error
traces on every backend while shipping no more than a fifth of the
per-column bytes recorded for closure-capture tasks (8848 B at rank 8,
dim 128; ``BENCH_update.json`` at the commit that removed them).
"""

import pickle

import numpy as np
import pytest

from repro.core import DbtfConfig, dbtf
from repro.distengine import (
    BroadcastHandle,
    ClusterConfig,
    SimulatedRuntime,
)
from repro.distengine.broadcast import _STORE, clear_store
from repro.distengine.shuffle import HANDLE_WIRE_BYTES, estimate_bytes
from repro.tensor import SparseBoolTensor, planted_tensor


@pytest.fixture
def clean_store():
    clear_store()
    yield
    clear_store()


class TestBroadcastHandle:
    def test_broadcast_returns_handle(self):
        with SimulatedRuntime(ClusterConfig()) as runtime:
            handle = runtime.broadcast(np.arange(10), name="xs")
            assert isinstance(handle, BroadcastHandle)
            assert handle.name == "xs"
            assert handle.n_bytes == estimate_bytes(np.arange(10))
            assert len(handle.content_id) == 16
            np.testing.assert_array_equal(handle.value, np.arange(10))

    def test_pickle_drops_value_and_resolves_from_store(self, clean_store):
        value = np.arange(32)
        handle = BroadcastHandle(value, "aa" * 8, "xs", value.nbytes)
        wire = pickle.dumps(handle)
        # The value never rides inside a pickled handle.
        assert len(wire) < 200
        revived = pickle.loads(wire)
        _STORE[handle.content_id] = value
        np.testing.assert_array_equal(revived.value, value)

    def test_resolution_from_spill_file(self, clean_store, tmp_path):
        value = list(range(100))
        spill = tmp_path / "cafe.pkl"
        spill.write_bytes(pickle.dumps(value))
        handle = pickle.loads(
            pickle.dumps(
                BroadcastHandle(value, "cafe" * 4, "xs", 800, str(spill))
            )
        )
        assert handle.value == value
        # Loaded once into the store; later handles hit it without the file.
        assert _STORE[handle.content_id] == value

    def test_unresolvable_handle_raises(self, clean_store):
        handle = pickle.loads(
            pickle.dumps(BroadcastHandle([1], "beef" * 4, "xs", 8))
        )
        with pytest.raises(RuntimeError, match="no value"):
            handle.value

    def test_handle_costs_constant_wire_bytes(self):
        big = np.zeros(1 << 16, dtype=np.uint64)
        handle = BroadcastHandle(big, "ab" * 8, "big", big.nbytes)
        assert estimate_bytes(handle) == HANDLE_WIRE_BYTES
        # ... and the same inside a task-payload container.
        assert estimate_bytes([handle, handle]) == 2 * HANDLE_WIRE_BYTES + 8

    def test_equal_values_share_content_id(self):
        with SimulatedRuntime(ClusterConfig()) as runtime:
            first = runtime.broadcast(np.arange(8), name="a")
            second = runtime.broadcast(np.arange(8), name="b")
            assert first.content_id == second.content_id


#: Per-column sweep bytes closure-capture tasks shipped at rank 8, dim 128
#: (8848 B), divided by the 5x drop the handle path was held to.
MAX_PER_COLUMN_BYTES = 1769


def _dbtf_outcome(tensor, backend="serial"):
    config = DbtfConfig(rank=8, max_iterations=2, seed=7, n_partitions=4)
    cluster = ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
    )
    runtime = SimulatedRuntime(cluster)
    try:
        result = dbtf(tensor, config=config, runtime=runtime)
        by_stage = dict(runtime.ledger.by_stage)
    finally:
        runtime.close()
    return result, by_stage


def _sweep_bytes(by_stage):
    """Driver->worker bytes of the column sweep: every ledger row with a
    ``columnErrors`` task or ``columnUpdate`` broadcast segment."""
    return sum(
        value
        for name, value in by_stage.items()
        if {"columnErrors", "columnUpdate"} & set(name.split("+"))
    )


class TestHandlePathEquivalence:
    @pytest.fixture(scope="class")
    def tensor(self):
        return planted_tensor(
            (40, 32, 24), rank=4, factor_density=0.4,
            rng=np.random.default_rng(11), additive_noise=0.02,
        )[0]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bit_identical_across_backends(self, tensor, backend):
        serial, serial_stages = _dbtf_outcome(tensor)
        other, other_stages = _dbtf_outcome(tensor, backend=backend)
        assert serial.error == other.error
        assert serial.errors_per_iteration == other.errors_per_iteration
        for serial_factor, other_factor in zip(serial.factors, other.factors):
            assert np.array_equal(serial_factor.words, other_factor.words)
        # Ledger byte totals are part of the backend-invariance contract.
        assert serial_stages == other_stages


class TestPerColumnByteDrop:
    def test_at_least_5x_drop_at_rank8_dim128(self):
        """The headline regression: rank 8, dim 128, >=5x per-column drop."""
        rng = np.random.default_rng(0)
        dense = (rng.random((128, 128, 128)) < 0.01).astype(np.uint8)
        tensor = SparseBoolTensor.from_dense(dense)
        config = DbtfConfig(rank=8, max_iterations=1, seed=3, n_partitions=4)
        with SimulatedRuntime(ClusterConfig()) as runtime:
            result = dbtf(tensor, config=config, runtime=runtime)
            sweep = _sweep_bytes(dict(runtime.ledger.by_stage))
        per_column = sweep / (8 * 3 * len(result.errors_per_iteration))
        assert per_column <= MAX_PER_COLUMN_BYTES, (
            f"per-column sweep bytes {per_column:.0f} exceed "
            f"{MAX_PER_COLUMN_BYTES} (closure-capture baseline 8848 / 5)"
        )
