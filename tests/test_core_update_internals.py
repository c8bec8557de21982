"""Unit tests for update-kernel internals (CachedPartition, mask helpers)."""

import tracemalloc

import numpy as np
import pytest

from repro.bitops import BitMatrix, packing
from repro.core import DbtfConfig, RowSummationCache
from repro.core.incremental import prepare_mode_partitions
from repro.core.partition import build_partition_data, make_partition_plans
from repro.core.update import CachedPartition, _masks_with_bit_cleared
from repro.distengine import ClusterConfig, SimulatedRuntime, estimate_bytes
from repro.tensor import PackedUnfolding, SparseBoolTensor, random_factors, unfold


class TestMasksWithBitCleared:
    def test_clears_only_target_bit(self):
        rng = np.random.default_rng(0)
        matrix = BitMatrix.random(6, 10, 0.5, rng)
        for column in (0, 5, 9):
            masks = _masks_with_bit_cleared(matrix.words, column)
            cleared = BitMatrix(6, 10, masks)
            for row in range(6):
                for col in range(10):
                    expected = 0 if col == column else matrix.get(row, col)
                    assert cleared.get(row, col) == expected

    def test_bit_beyond_word_boundary(self):
        rng = np.random.default_rng(1)
        matrix = BitMatrix.random(3, 70, 0.5, rng)
        masks = _masks_with_bit_cleared(matrix.words, 66)
        cleared = BitMatrix(3, 70, masks)
        assert all(cleared.get(row, 66) == 0 for row in range(3))

    def test_original_untouched(self):
        rng = np.random.default_rng(2)
        matrix = BitMatrix.random(4, 8, 0.9, rng)
        before = matrix.words.copy()
        _masks_with_bit_cleared(matrix.words, 3)
        np.testing.assert_array_equal(matrix.words, before)


class TestCachedPartition:
    def _build(self, shape, rank, n_partitions, seed):
        rng = np.random.default_rng(seed)
        factors = random_factors(shape, rank, 0.5, rng)
        from repro.tensor import tensor_from_factors

        tensor = tensor_from_factors(factors)
        packed = PackedUnfolding(unfold(tensor, 0))
        plans = make_partition_plans(packed.block_count, packed.block_width, n_partitions)
        parts = build_partition_data(packed, plans)
        cache = RowSummationCache(factors[1], group_size=15)
        return tensor, factors, [CachedPartition(part, cache) for part in parts]

    def test_full_and_edge_blocks_partition_the_plan(self):
        tensor, _, cached = self._build((6, 7, 9), 3, 4, seed=0)
        unfolded = unfold(tensor, 0).to_dense()
        for cp in cached:
            data = cp.data
            full = data.full_words
            assert full.shape[1] + len(cp.edge_blocks) == len(data.plan.blocks)
            # Lemma 3: at most two partial blocks per partition.
            assert len(cp.edge_blocks) <= 2
            # The full-width blocks are a view of the slab, in PVM order.
            assert np.shares_memory(full, data.words)
            for position, pvm in enumerate(data.full_pvms):
                np.testing.assert_array_equal(
                    packing.unpack_bits(full[:, position], 7),
                    unfolded[:, pvm * 7 : (pvm + 1) * 7],
                )
            for block, _, words in cp.edge_blocks:
                lo = block.pvm_index * block.width
                np.testing.assert_array_equal(
                    packing.unpack_bits(words, block.n_cols),
                    unfolded[:, lo + block.start : lo + block.stop],
                )

    def test_nbytes_counts_each_buffer_once(self):
        # 12 x 13 x 14 mode 0 in 5 partitions: partition 1 spans columns
        # [37, 74) of 13-wide PVMs, so it has a suffix and a prefix block.
        tensor = SparseBoolTensor.from_dense(
            (np.random.default_rng(4).random((12, 13, 14)) < 0.3).astype(np.uint8)
        )
        packed = PackedUnfolding(unfold(tensor, 0))
        plans = make_partition_plans(packed.block_count, packed.block_width, 5)
        inner = BitMatrix.random(13, 4, 0.5, np.random.default_rng(5))
        two_edges = 0
        for data in build_partition_data(packed, plans):
            cp = CachedPartition(data, RowSummationCache(inner, group_size=2))
            cache = cp.cache
            buffers = [data.words, cache.columns_packed, *cache.full_tables]
            buffers += [t for tables in cache._sliced.values() for t in tables]
            buffers += [words for _, _, words in cp.edge_blocks]
            distinct = {id(buffer): buffer for buffer in buffers}
            total = sum(int(buffer.nbytes) for buffer in distinct.values())
            assert cp.nbytes == total
            assert estimate_bytes(cp) == total
            two_edges += len(cp.edge_blocks) == 2
        assert two_edges

    @pytest.mark.parametrize("budget", [None, 1 << 30])
    def test_allocates_only_cache_and_edge_slices(self, budget):
        # Both unfolding paths: slabs packed from coordinates, and slabs
        # that are views of the budgeted path's memmap.
        rng = np.random.default_rng(6)
        tensor = SparseBoolTensor.from_dense(
            (rng.random((48, 130, 200)) < 0.02).astype(np.uint8)
        )
        inner = BitMatrix.random(130, 4, 0.5, rng)
        cluster = ClusterConfig(
            n_machines=2, cores_per_machine=1, memory_budget=budget
        )
        with SimulatedRuntime(cluster) as runtime:
            rdd, _ = prepare_mode_partitions(tensor, 0, 7, runtime)
            with_edges = 0
            for data in rdd.collect():
                cache = RowSummationCache(inner, group_size=2)
                cache_before = cache.nbytes
                tracemalloc.start()
                try:
                    cp = CachedPartition(data, cache)
                    allocated, _ = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                edges = sum(int(words.nbytes) for _, _, words in cp.edge_blocks)
                owned = cache.nbytes - cache_before + edges
                # A copy of the slab would blow far past the slack.
                assert data.nbytes > 8 * 4096
                assert allocated <= owned + 4096
                with_edges += bool(cp.edge_blocks)
            assert with_edges
    def test_column_errors_sum_to_whole_row_error(self):
        tensor, factors, cached = self._build((6, 7, 9), 3, 4, seed=1)
        a_matrix, b_matrix, c_matrix = factors
        column = 1
        masks = _masks_with_bit_cleared(a_matrix.words, column)
        inner_columns = b_matrix.transpose().words
        total_zero = np.zeros(6, dtype=np.int64)
        total_one = np.zeros(6, dtype=np.int64)
        for cp in cached:
            err_zero, err_one = cp.column_errors(
                masks, c_matrix.words, c_matrix.column(column),
                inner_columns[column],
            )
            total_zero += err_zero
            total_one += err_one
        # Brute-force reference over the dense unfolding.
        from repro.bitops import khatri_rao

        kr = khatri_rao(c_matrix, b_matrix).to_dense()  # (K*J, R)
        unfolded = unfold(tensor, 0).to_dense()
        for value, totals in ((0, total_zero), (1, total_one)):
            candidate = a_matrix.copy()
            for row in range(6):
                candidate.set(row, column, value)
            rows = candidate.to_dense().astype(bool)
            reconstruction = (rows.astype(np.int32) @ kr.T.astype(np.int32)) > 0
            expected = (reconstruction ^ unfolded.astype(bool)).sum(axis=1)
            np.testing.assert_array_equal(totals, expected)

    def test_empty_partition_contributes_zero(self):
        # More partitions than columns leaves some partitions block-less.
        tensor, factors, cached = self._build((3, 2, 2), 2, 10, seed=2)
        a_matrix, b_matrix, c_matrix = factors
        masks = _masks_with_bit_cleared(a_matrix.words, 0)
        inner_columns = b_matrix.transpose().words
        empty = [cp for cp in cached if not cp.data.plan.blocks]
        assert empty
        for cp in empty:
            err_zero, err_one = cp.column_errors(
                masks, c_matrix.words, c_matrix.column(0), inner_columns[0]
            )
            assert err_zero.sum() == 0
            assert err_one.sum() == 0

    def _both(self, cp, masks, outer, column, inner_columns):
        args = (masks, outer.words, outer.column(column), inner_columns[column])
        return (
            cp.column_errors(*args),
            cp.column_errors(*args, all_blocks=True),
        )

    @pytest.mark.parametrize(
        "shape, n_partitions", [((6, 7, 9), 4), ((5, 6, 4), 3), ((3, 2, 2), 10)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_active_blocks_decide_like_all_blocks(self, shape, n_partitions, seed):
        # Edge blocks ((6, 7, 9) / 4 and (5, 6, 4) / 3 split blocks at
        # partition boundaries) and empty partitions ((3, 2, 2) / 10).
        _, factors, cached = self._build(shape, 3, n_partitions, seed)
        a_matrix, b_matrix, c_matrix = factors
        inner_columns = b_matrix.transpose().words
        for column in range(3):
            masks = _masks_with_bit_cleared(a_matrix.words, column)
            active_zero = np.zeros(shape[0], dtype=np.int64)
            active_one = np.zeros(shape[0], dtype=np.int64)
            full_zero = np.zeros(shape[0], dtype=np.int64)
            full_one = np.zeros(shape[0], dtype=np.int64)
            for cp in cached:
                (a0, a1), (f0, f1) = self._both(
                    cp, masks, c_matrix, column, inner_columns
                )
                np.testing.assert_array_equal(a1 - a0, f1 - f0)
                active_zero += a0
                active_one += a1
                full_zero += f0
                full_one += f1
            np.testing.assert_array_equal(
                active_one < active_zero, full_one < full_zero
            )
            # Active-only errors are the full errors minus what inactive
            # blocks add, equally, to both candidates.
            assert (active_zero <= full_zero).all()

    def test_outer_column_without_active_blocks(self):
        _, factors, cached = self._build((6, 7, 9), 3, 4, seed=3)
        a_matrix, b_matrix, c_matrix = factors
        outer = c_matrix.copy()
        outer.set_column(1, np.zeros(outer.n_rows, dtype=np.uint8))
        masks = _masks_with_bit_cleared(a_matrix.words, 1)
        inner_columns = b_matrix.transpose().words
        for cp in cached:
            (a0, a1), (f0, f1) = self._both(cp, masks, outer, 1, inner_columns)
            # Nothing is active: no block is scanned and no row can gain.
            assert not a0.any() and not a1.any()
            np.testing.assert_array_equal(f0, f1)
