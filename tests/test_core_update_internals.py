"""Unit tests for update-kernel internals (column kernel, edge windows, payload)."""

import tracemalloc

import numpy as np
import pytest

from repro.bitops import BitMatrix, khatri_rao, packing
from repro.core import DbtfConfig, RowSummationCache, update_factor
from repro.core.incremental import prepare_mode_partitions
from repro.core.partition import build_partition_data, make_partition_plans
from repro.core.update import (
    _ColumnRoundTask,
    _pvm_window,
    column_errors,
    column_keys,
    kernel_tables,
)
from repro.distengine import ClusterConfig, SimulatedRuntime, estimate_bytes
from repro.distengine.shuffle import _payload_attrs
from repro.tensor import (
    PackedUnfolding,
    SparseBoolTensor,
    random_factors,
    tensor_from_factors,
    unfold,
)

from .sweep_oracle import basis, predicted_rounds, sweep, unfolded


class TestCachedPartition:
    """A partition's column errors against the shared row-summation cache
    (:func:`~repro.core.update.column_errors`)."""

    def _build(self, shape, rank, n_partitions, seed):
        rng = np.random.default_rng(seed)
        factors = random_factors(shape, rank, 0.5, rng)
        tensor = tensor_from_factors(factors)
        packed = PackedUnfolding(unfold(tensor, 0))
        plans = make_partition_plans(packed.block_count, packed.block_width, n_partitions)
        parts = build_partition_data(packed, plans)
        tables = kernel_tables(
            RowSummationCache(factors[1], group_size=15), factors[2].words
        )
        return tensor, factors, parts, tables

    @staticmethod
    def _keys(tables, target, outer, column):
        return column_keys(tables, target.words, column)

    def test_full_and_edge_blocks_partition_the_plan(self):
        tensor, _, parts, _ = self._build((6, 7, 9), 3, 4, seed=0)
        unfolded = unfold(tensor, 0).to_dense()
        with_edges = 0
        for data in parts:
            blocks = data.plan.blocks
            edges = [block for block in blocks if not block.is_full]
            # Lemma 3: at most two partial blocks per partition, at its ends.
            assert len(edges) <= 2
            assert all(block in (blocks[0], blocks[-1]) for block in edges)
            if not edges:
                continue
            with_edges += 1
            window, n_edges = _pvm_window(blocks[0], blocks[-1])
            assert n_edges == len(edges)
            assert window.shape == (1, len(blocks)) and not window.flags.writeable
            assert _pvm_window(blocks[0], blocks[-1])[0] is window
            for position, block in enumerate(blocks):
                # The window holds exactly the block's columns of its PVM.
                bits = packing.unpack_bits(window[:, position], 7)
                expected = np.zeros(7, dtype=np.uint8)
                expected[block.start : block.stop] = 1
                np.testing.assert_array_equal(bits, expected)
                lo = block.pvm_index * block.width
                masked = data.words[:, position] & window[:, position]
                np.testing.assert_array_equal(
                    packing.unpack_bits(masked, 7)[:, block.start : block.stop],
                    unfolded[:, lo + block.start : lo + block.stop],
                )
        assert with_edges

    @pytest.mark.parametrize("budget", [None, 1 << 30])
    def test_allocates_only_cache_and_edge_slices(self, budget):
        # Both unfolding paths: slabs packed from coordinates, and slabs
        # that are views of the budgeted path's memmap.  An active-only
        # evaluation allocates in proportion to its active blocks, edge
        # blocks included, never a copy of the slab.
        rng = np.random.default_rng(6)
        tensor = SparseBoolTensor.from_dense(
            (rng.random((48, 130, 200)) < 0.02).astype(np.uint8)
        )
        target = BitMatrix.random(48, 4, 0.5, rng)
        inner = BitMatrix.random(130, 4, 0.5, rng)
        cluster = ClusterConfig(
            n_machines=2, cores_per_machine=1, memory_budget=budget
        )
        with SimulatedRuntime(cluster) as runtime:
            rdd, _ = prepare_mode_partitions(tensor, 0, 7, runtime)
            with_edges = 0
            for data in rdd.collect():
                first = data.plan.blocks[0]
                # One active block: the partition's first, often an edge.
                outer = BitMatrix(200, 4, np.zeros((200, 1), dtype=np.uint64))
                outer.set(first.pvm_index, 2, 1)
                outer.set(first.pvm_index, 0, 1)
                tables = kernel_tables(
                    RowSummationCache(inner, group_size=2), outer.words
                )
                keys = self._keys(tables, target, outer, 2)
                column_errors(data, tables, keys)  # warm the window memo
                block_bytes = data.n_rows * data.words.shape[2] * 8
                tracemalloc.start()
                try:
                    change, error_if_zero = column_errors(data, tables, keys)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert error_if_zero is None and change.any()
                # A copy of the slab would blow far past the bound.
                assert data.nbytes > 8 * block_bytes + 4096
                assert peak <= 8 * block_bytes + 4096
                with_edges += not first.is_full
            assert with_edges

    def _dense_errors(self, tensor, factors, column):
        """Per-row errors of both candidates over the dense unfolding."""
        a_matrix, b_matrix, c_matrix = factors
        kr = khatri_rao(c_matrix, b_matrix).to_dense()  # (K*J, R)
        unfolded = unfold(tensor, 0).to_dense().astype(bool)
        errors = []
        for value in (0, 1):
            candidate = a_matrix.copy()
            candidate.set_column(
                column, np.full(a_matrix.n_rows, value, dtype=np.uint8)
            )
            rows = candidate.to_dense().astype(np.int32)
            reconstruction = (rows @ kr.T.astype(np.int32)) > 0
            errors.append((reconstruction ^ unfolded).sum(axis=1))
        return errors

    def test_column_errors_sum_to_whole_row_error(self):
        tensor, factors, parts, tables = self._build((6, 7, 9), 3, 4, seed=1)
        a_matrix, _, c_matrix = factors
        column = 1
        keys = self._keys(tables, a_matrix, c_matrix, column)
        total_zero = np.zeros(6, dtype=np.int64)
        total_change = np.zeros(6, dtype=np.int64)
        for data in parts:
            change, error_if_zero = column_errors(data, tables, keys, seed=True)
            total_zero += error_if_zero
            total_change += change
        # Brute-force reference over the dense unfolding.
        expected_zero, expected_one = self._dense_errors(tensor, factors, column)
        np.testing.assert_array_equal(total_zero, expected_zero)
        np.testing.assert_array_equal(total_zero + total_change, expected_one)

    def test_empty_partition_contributes_zero(self):
        # More partitions than columns leaves some partitions block-less.
        _, factors, parts, tables = self._build((3, 2, 2), 2, 10, seed=2)
        a_matrix, _, c_matrix = factors
        keys = self._keys(tables, a_matrix, c_matrix, 0)
        empty = [data for data in parts if not data.plan.blocks]
        assert empty
        for data in empty:
            change, error_if_zero = column_errors(data, tables, keys)
            assert error_if_zero is None and not change.any()
            change, error_if_zero = column_errors(data, tables, keys, seed=True)
            assert not change.any() and not error_if_zero.any()
            assert change.shape == error_if_zero.shape == (3,)

    @pytest.mark.parametrize(
        "shape, n_partitions", [((6, 7, 9), 4), ((5, 6, 4), 3), ((3, 2, 2), 10)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_active_blocks_decide_like_all_blocks(self, shape, n_partitions, seed):
        # Edge blocks ((6, 7, 9) / 4 and (5, 6, 4) / 3 split blocks at
        # partition boundaries) and empty partitions ((3, 2, 2) / 10).
        tensor, factors, parts, tables = self._build(shape, 3, n_partitions, seed)
        a_matrix, _, c_matrix = factors
        for column in range(3):
            keys = self._keys(tables, a_matrix, c_matrix, column)
            active_change = np.zeros(shape[0], dtype=np.int64)
            full_zero = np.zeros(shape[0], dtype=np.int64)
            for data in parts:
                active, none = column_errors(data, tables, keys)
                full, zero = column_errors(data, tables, keys, seed=True)
                # Inactive blocks add the same error to both candidates.
                assert none is None
                np.testing.assert_array_equal(active, full)
                active_change += active
                full_zero += zero
            expected_zero, expected_one = self._dense_errors(
                tensor, factors, column
            )
            np.testing.assert_array_equal(full_zero, expected_zero)
            np.testing.assert_array_equal(
                active_change < 0, expected_one < expected_zero
            )

    def test_outer_column_without_active_blocks(self):
        tensor, factors, parts, tables = self._build((6, 7, 9), 3, 4, seed=3)
        a_matrix, b_matrix, c_matrix = factors
        outer = c_matrix.copy()
        outer.set_column(1, np.zeros(outer.n_rows, dtype=np.uint8))
        tables = kernel_tables(
            RowSummationCache(b_matrix, group_size=15), outer.words
        )
        keys = self._keys(tables, a_matrix, outer, 1)
        # Nothing is active: the active-only path gathers from no table.
        unreadable = tables._replace(tables=[None] * len(tables.tables))
        total_zero = np.zeros(6, dtype=np.int64)
        for data in parts:
            change, error_if_zero = column_errors(data, unreadable, keys)
            assert error_if_zero is None and not change.any()
            change, error_if_zero = column_errors(data, tables, keys, seed=True)
            # No row can gain: both candidates reconstruct the same cells.
            assert not change.any()
            total_zero += error_if_zero
        expected_zero, _ = self._dense_errors(
            tensor, (a_matrix, b_matrix, outer), 1
        )
        np.testing.assert_array_equal(total_zero, expected_zero)
        assert total_zero.any()


class TestColumnTaskPayload:
    """``_ColumnRoundTask.nbytes`` sizes a payload in O(1) exactly as the
    recursive ledger walk over its slots does."""

    @staticmethod
    def _walk(task):
        return sum(estimate_bytes(value) for value in _payload_attrs(task)) + 8

    @pytest.mark.parametrize("seed", [False, True])
    def test_matches_walk_for_every_delta_count(self, seed):
        # Round 1 ships no accepted bits; a later round ships its pending
        # rows' `columnUpdate` delta, of any size, by handle.
        with SimulatedRuntime(ClusterConfig()) as runtime:
            factors = runtime.broadcast([np.zeros((4, 1), dtype=np.uint64)])
            deltas = [None] + [
                runtime.broadcast(
                    (np.arange(count), np.ones(count, dtype=np.int64),
                     np.zeros((count, 1), dtype=np.uint64)),
                    name="columnUpdate",
                )
                for count in range(1, 5)
            ]
            for delta in deltas:
                for columns in (0b1, 0b111111, 1 << 70):
                    task = _ColumnRoundTask(factors, delta, columns, 6, 3, seed)
                    expected = 72 if delta is None else 104
                    assert task.nbytes == self._walk(task) == expected
                    assert estimate_bytes(task) == task.nbytes

    def test_matches_walk_inside_stage_wrappers(self, monkeypatch):
        # Edge blocks and a seeding first round; the first stage of a
        # fresh unfolding fuses packing into the round stage.
        dense = np.random.default_rng(7).random((12, 13, 14)) < 0.3
        tensor = SparseBoolTensor.from_dense(dense.astype(np.uint8))
        start = [
            BitMatrix.random(dim, 4, 0.4, np.random.default_rng(dim))
            for dim in tensor.shape
        ]
        payloads = []
        run_stage = SimulatedRuntime.run_stage

        def recording(self, stage_name, task_fn, *args, **kwargs):
            if "columnErrors" in stage_name:
                payloads.append((stage_name, task_fn))
            return run_stage(self, stage_name, task_fn, *args, **kwargs)

        monkeypatch.setattr(SimulatedRuntime, "run_stage", recording)
        config = DbtfConfig(rank=4, n_partitions=5, cache_group_size=3)
        with SimulatedRuntime(config.cluster) as runtime:
            rdd, _ = prepare_mode_partitions(tensor, 0, 5, runtime)
            update_factor(rdd.persist(), start[0], start[2], start[1], config, runtime)
        # One stage per round, as the sequential sweep's changes predict,
        # and later rounds carry their pending rows' handle.
        _, _, swept, changes = sweep(
            unfolded(dense, 0), start[0].to_dense(),
            basis(start[2].to_dense(), start[1].to_dense()),
        )
        rounds = predicted_rounds(swept, set(swept), changes)
        assert rounds >= 2 and len(payloads) == rounds
        assert "+" in payloads[0][0]  # fused with the partitioning stage
        sized = [estimate_bytes(task_fn) for _, task_fn in payloads]
        monkeypatch.delattr(_ColumnRoundTask, "nbytes")
        assert sized == [estimate_bytes(task_fn) for _, task_fn in payloads]
