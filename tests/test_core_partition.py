"""Unit tests for vertical partitioning and PVM-boundary blocks."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import packing
from repro.core import (
    Block,
    BlockType,
    build_partition_data,
    make_partition_plans,
    pack_partition,
    split_unfolding_coordinates,
)
from repro.core.partition import slab_index_dtype
from repro.core.incremental import prepare_mode_partitions
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import PackedUnfolding, SparseBoolTensor, unfold


class TestBlock:
    def test_full_block(self):
        block = Block(pvm_index=2, start=0, stop=8, width=8)
        assert block.is_full
        assert block.block_type is BlockType.FULL
        assert block.n_cols == 8

    def test_prefix_block(self):
        assert Block(0, 0, 5, 8).block_type is BlockType.PREFIX

    def test_suffix_block(self):
        assert Block(0, 3, 8, 8).block_type is BlockType.SUFFIX

    def test_interior_block(self):
        assert Block(0, 2, 6, 8).block_type is BlockType.INTERIOR

    @pytest.mark.parametrize("start,stop", [(3, 3), (5, 3), (-1, 2), (0, 9)])
    def test_invalid_ranges(self, start, stop):
        with pytest.raises(ValueError):
            Block(0, start, stop, 8)


class TestMakePartitionPlans:
    def test_covers_all_columns_without_overlap(self):
        plans = make_partition_plans(block_count=7, block_width=5, n_partitions=4)
        assert plans[0].col_start == 0
        assert plans[-1].col_stop == 35
        for left, right in zip(plans, plans[1:]):
            assert left.col_stop == right.col_start

    def test_sizes_differ_by_at_most_one(self):
        plans = make_partition_plans(block_count=7, block_width=5, n_partitions=4)
        sizes = [plan.n_cols for plan in plans]
        assert max(sizes) - min(sizes) <= 1

    def test_blocks_tile_each_partition(self):
        plans = make_partition_plans(block_count=7, block_width=5, n_partitions=4)
        for plan in plans:
            total = sum(block.n_cols for block in plan.blocks)
            assert total == plan.n_cols

    def test_blocks_respect_pvm_boundaries(self):
        plans = make_partition_plans(block_count=10, block_width=6, n_partitions=7)
        for plan in plans:
            cursor = plan.col_start
            for block in plan.blocks:
                absolute_start = block.pvm_index * block.width + block.start
                assert absolute_start == cursor
                cursor += block.n_cols
            assert cursor == plan.col_stop

    def test_lemma3_at_most_three_block_types(self):
        # Lemma 3: a partition can have at most three types of blocks.
        for block_count in (1, 3, 7, 16):
            for width in (1, 4, 9):
                for n_partitions in (1, 2, 5, 13):
                    plans = make_partition_plans(block_count, width, n_partitions)
                    for plan in plans:
                        assert len(plan.block_types()) <= 3

    def test_more_partitions_than_columns(self):
        plans = make_partition_plans(block_count=2, block_width=2, n_partitions=10)
        assert len(plans) == 10
        non_empty = [plan for plan in plans if plan.n_cols > 0]
        assert len(non_empty) == 4
        empty = [plan for plan in plans if plan.n_cols == 0]
        for plan in empty:
            assert plan.blocks == ()

    def test_single_partition_has_full_blocks_only(self):
        plans = make_partition_plans(block_count=5, block_width=4, n_partitions=1)
        assert len(plans) == 1
        assert all(block.is_full for block in plans[0].blocks)
        assert len(plans[0].blocks) == 5

    @pytest.mark.parametrize(
        "block_count,width,n_partitions", [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    )
    def test_invalid_arguments(self, block_count, width, n_partitions):
        with pytest.raises(ValueError):
            make_partition_plans(block_count, width, n_partitions)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants_property(self, block_count, width, n_partitions):
        plans = make_partition_plans(block_count, width, n_partitions)
        assert len(plans) == n_partitions
        assert plans[-1].col_stop == block_count * width
        for plan in plans:
            assert len(plan.block_types()) <= 3
            assert sum(block.n_cols for block in plan.blocks) == plan.n_cols


def _block_bits(data, block):
    """One of the plan's blocks as dense 0/1 columns of its PVM's words."""
    words = data.words[:, block.pvm_index - data.plan.pvm_span.start]
    return packing.unpack_bits(words, block.width)[:, block.start : block.stop]


class TestBuildPartitionData:
    def _packed(self, shape, seed, mode=0):
        rng = np.random.default_rng(seed)
        dense = (rng.random(shape) < 0.3).astype(np.uint8)
        tensor = SparseBoolTensor.from_dense(dense)
        return PackedUnfolding(unfold(tensor, mode)), tensor

    def test_blocks_carry_correct_bits(self):
        packed, tensor = self._packed((6, 7, 8), seed=1)
        plans = make_partition_plans(packed.block_count, packed.block_width, 5)
        data = build_partition_data(packed, plans)
        unfolded = packed.to_dense()
        for part in data:
            for block in part.plan.blocks:
                lo = block.pvm_index * block.width + block.start
                hi = block.pvm_index * block.width + block.stop
                np.testing.assert_array_equal(
                    _block_bits(part, block), unfolded[:, lo:hi]
                )

    def test_total_nonzeros_preserved(self):
        packed, tensor = self._packed((5, 9, 4), seed=2)
        plans = make_partition_plans(packed.block_count, packed.block_width, 3)
        data = build_partition_data(packed, plans)
        total = sum(
            int(_block_bits(part, block).sum())
            for part in data
            for block in part.plan.blocks
        )
        assert total == tensor.nnz

    def test_nbytes_positive(self):
        packed, _ = self._packed((4, 4, 4), seed=3)
        plans = make_partition_plans(packed.block_count, packed.block_width, 2)
        data = build_partition_data(packed, plans)
        assert all(part.nbytes > 0 for part in data)

    def test_slabs_are_views_of_the_unfolding(self):
        packed, _ = self._packed((6, 7, 8), seed=4)
        plans = make_partition_plans(packed.block_count, packed.block_width, 5)
        for part in build_partition_data(packed, plans):
            assert np.shares_memory(part.words, packed.words)
            span = part.plan.pvm_span
            np.testing.assert_array_equal(part.words, packed.words[:, span])

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_budgeted_slabs_share_the_flushed_memmap(self, mode):
        # Edge-bearing partitions included: a partial block is sliced out
        # of the slab on demand, so no partition copies the unfolding.
        _, tensor = self._packed((6, 7, 8), seed=5)
        cluster = ClusterConfig(
            n_machines=2, cores_per_machine=1, memory_budget=1 << 30
        )
        with SimulatedRuntime(cluster) as runtime:
            rdd, plans = prepare_mode_partitions(tensor, mode, 5, runtime)
            directory = runtime.unfolding_storage().directory
            parts = rdd.collect()
            assert any(not block.is_full for plan in plans for block in plan.blocks)
            for part in parts:
                base = part.words
                while base is not None and not isinstance(base, np.memmap):
                    base = base.base
                assert isinstance(base, np.memmap)
                assert base.filename.startswith(directory)
                assert np.shares_memory(part.words, base)
                assert not part.words.flags.writeable


def _decode(split, block_width):
    """(rows, columns) of a partition's slab-local bit indices."""
    span = split.plan.pvm_span
    n_pvms = span.stop - span.start
    row_bits = packing.words_for_bits(block_width) * packing.WORD_BITS
    cell, offsets = np.divmod(split.bits.astype(np.int64), row_bits)
    rows, blocks = np.divmod(cell, max(n_pvms, 1))
    return rows, (blocks + span.start) * block_width + offsets


class TestSparsePartitioning:
    """The shuffle-then-pack path of Algorithm 3 (what DBTF actually uses)."""

    def _unfolding(self, shape, seed, mode=0, density=0.3):
        rng = np.random.default_rng(seed)
        dense = (rng.random(shape) < density).astype(np.uint8)
        tensor = SparseBoolTensor.from_dense(dense)
        return unfold(tensor, mode), tensor

    def test_every_nonzero_lands_in_exactly_one_partition(self):
        unfolding, tensor = self._unfolding((6, 7, 8), seed=0)
        plans = make_partition_plans(unfolding.block_count, unfolding.block_width, 5)
        splits = split_unfolding_coordinates(unfolding, plans)
        assert sum(split.nnz for split in splits) == tensor.nnz
        cells = set()
        for split in splits:
            rows, columns = _decode(split, unfolding.block_width)
            assert (columns >= split.plan.col_start).all()
            assert (columns < split.plan.col_stop).all()
            cells |= set(zip(rows.tolist(), columns.tolist()))
        assert cells == set(zip(unfolding.rows.tolist(), unfolding.columns().tolist()))

    def test_shuffle_bytes_proportional_to_nnz(self):
        # Lemma 6: the shuffled volume is O(|X|), not O(cells).
        unfolding, tensor = self._unfolding((8, 8, 8), seed=1, density=0.1)
        plans = make_partition_plans(unfolding.block_count, unfolding.block_width, 3)
        splits = split_unfolding_coordinates(unfolding, plans)
        total = sum(split.nbytes for split in splits)
        # The ledger models a (row, block, offset) int64 triple per
        # nonzero, though each one travels as a single slab-bit index.
        assert total == tensor.nnz * 3 * 8

    @pytest.mark.parametrize("shape", [(6, 7, 8), (5, 70, 3), (9, 3, 11)])
    @pytest.mark.parametrize("n_partitions", [1, 4, 9])
    def test_pack_partition_matches_dense_path(self, shape, n_partitions):
        unfolding, tensor = self._unfolding(shape, seed=2)
        packed = PackedUnfolding(unfolding)
        plans = make_partition_plans(
            unfolding.block_count, unfolding.block_width, n_partitions
        )
        dense_path = build_partition_data(packed, plans)
        sparse_path = [
            pack_partition(split)
            for split in split_unfolding_coordinates(unfolding, plans)
        ]
        for expected, actual in zip(dense_path, sparse_path):
            assert expected.plan == actual.plan
            for block in expected.plan.blocks:
                np.testing.assert_array_equal(
                    _block_bits(expected, block), _block_bits(actual, block)
                )

    def test_empty_partition_packs_to_no_blocks(self):
        unfolding, _ = self._unfolding((2, 2, 2), seed=3)
        plans = make_partition_plans(unfolding.block_count, unfolding.block_width, 10)
        splits = split_unfolding_coordinates(unfolding, plans)
        empty = [s for s in splits if s.plan.n_cols == 0]
        assert empty
        for split in empty:
            assert pack_partition(split).words.shape[1] == 0


class TestSplitProperty:
    """The linear split against a brute-force reference (Algorithm 3)."""

    @given(
        shape=st.tuples(
            st.integers(1, 6), st.integers(1, 9), st.integers(1, 9)
        ),
        mode=st.integers(0, 2),
        density=st.sampled_from([0.0, 0.2, 0.7]),
        extra_partitions=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_matches_brute_force(
        self, shape, mode, density, extra_partitions, data
    ):
        rng = np.random.default_rng(sum(shape) * 7 + mode)
        tensor = SparseBoolTensor.from_dense(
            (rng.random(shape) < density).astype(np.uint8)
        )
        unfolding = unfold(tensor, mode)
        n_partitions = data.draw(
            st.integers(1, unfolding.n_cols + extra_partitions)
        )
        plans = make_partition_plans(
            unfolding.block_count, unfolding.block_width, n_partitions
        )
        splits = split_unfolding_coordinates(unfolding, plans)
        columns = unfolding.columns()
        for plan, split in zip(plans, splits):
            assert split.plan == plan
            inside = (columns >= plan.col_start) & (columns < plan.col_stop)
            rows, got = _decode(split, unfolding.block_width)
            assert sorted(zip(rows.tolist(), got.tolist())) == sorted(
                zip(unfolding.rows[inside].tolist(), columns[inside].tolist())
            )
        packed = build_partition_data(PackedUnfolding(unfolding), plans)
        for expected, split in zip(packed, splits):
            actual = pack_partition(split)
            for block in expected.plan.blocks:
                np.testing.assert_array_equal(
                    _block_bits(expected, block), _block_bits(actual, block)
                )


class TestSlabIndexWidth:
    """One slab-bit index per nonzero: uint32 while every slab fits."""

    @pytest.mark.parametrize(
        "block_count,width,n_partitions,row_bits",
        [
            (12, 64, 1, 12 * 64),
            (12, 64, 3, 4 * 64),
            # 5 columns per partition over 4-wide PVMs: every slab spans
            # 2 PVMs, one word each at full width.
            (5, 4, 4, 2 * 64),
        ],
    )
    def test_dtype_switches_at_two_to_the_32_slab_bits(
        self, block_count, width, n_partitions, row_bits
    ):
        # Plan arithmetic only: nothing of that size is allocated.
        plans = make_partition_plans(block_count, width, n_partitions)
        at_limit = -(-(2**32) // row_bits)  # fewest rows reaching 2**32 bits
        assert slab_index_dtype(at_limit - 1, plans) == np.uint32
        assert slab_index_dtype(at_limit, plans) == np.int64

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_pickled_source_payload_is_four_bytes_per_nonzero(self, mode):
        # What the process backend pickles for a partitionAndPack[m] stage.
        rng = np.random.default_rng(mode)
        tensor = SparseBoolTensor.from_dense(
            (rng.random((40, 50, 60)) < 0.2).astype(np.uint8)
        )
        with SimulatedRuntime(ClusterConfig(n_machines=2)) as runtime:
            rdd, _ = prepare_mode_partitions(tensor, mode, 4, runtime)
            source = rdd.node.parent
            assert source.is_source
            sources = [split for part in source.cached for split in part]
        assert sum(split.nnz for split in sources) == tensor.nnz
        assert all(split.bits.dtype == np.uint32 for split in sources)
        payload = len(pickle.dumps(sources, protocol=pickle.HIGHEST_PROTOCOL))
        assert payload <= 4 * tensor.nnz + 4096
