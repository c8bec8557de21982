"""Tests for batch-streamed tensor ingestion."""

import numpy as np
import pytest

from repro.storage import (
    MmapUnfoldingStore,
    StreamingTensorBuilder,
    iter_coordinate_batches,
)
from repro.tensor import PackedUnfolding, SparseBoolTensor, random_tensor, unfold


class TestStreamingTensorBuilder:
    def test_matches_one_shot_construction(self):
        tensor = random_tensor((8, 9, 10), density=0.15,
                               rng=np.random.default_rng(11))
        builder = StreamingTensorBuilder((8, 9, 10))
        for batch in np.array_split(tensor.coords, 5):
            builder.add_batch(batch)
        built = builder.build()
        assert built.shape == tensor.shape
        assert np.array_equal(built.coords, tensor.coords)

    def test_overlapping_unsorted_batches(self):
        tensor = random_tensor((7, 8, 9), density=0.2,
                               rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        builder = StreamingTensorBuilder(tensor.shape)
        seen = set()
        for _ in range(6):
            # Each batch: a random, shuffled, repeated sample of the cells.
            batch = tensor.coords[rng.integers(0, tensor.nnz, size=60)]
            builder.add_batch(batch)
            seen.update(map(tuple, batch.tolist()))
            assert builder.nnz == len(seen)
        builder.add_batch(tensor.coords[::-1])
        assert builder.nnz == tensor.nnz
        assert np.array_equal(builder.build().coords, tensor.coords)

    def test_duplicates_across_batches_collapse(self):
        builder = StreamingTensorBuilder((4, 4))
        builder.add_batch([(0, 0), (1, 2), (0, 0)])
        builder.add_batch([(1, 2), (3, 3)])
        assert builder.nnz == 3
        assert builder.rows_ingested == 5
        assert builder.batches_ingested == 2
        expected = SparseBoolTensor.from_nonzeros(
            (4, 4), [(0, 0), (1, 2), (3, 3)]
        )
        assert np.array_equal(builder.build().coords, expected.coords)

    def test_empty_batch_is_noop(self):
        builder = StreamingTensorBuilder((3, 3))
        builder.add_batch(np.zeros((0, 2), dtype=np.int64))
        assert builder.nnz == 0
        assert builder.batches_ingested == 1
        assert builder.build().coords.shape == (0, 2)

    def test_chaining(self):
        builder = StreamingTensorBuilder((2, 2)).add_batch([(0, 1)]).add_batch(
            [(1, 0)]
        )
        assert builder.nnz == 2

    @pytest.mark.parametrize("shape", [(), (0, 3), (-1, 3)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            StreamingTensorBuilder(shape)

    def test_wrong_arity_rejected(self):
        builder = StreamingTensorBuilder((3, 3, 3))
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            builder.add_batch([(0, 1)])

    def test_out_of_bounds_rejected(self):
        builder = StreamingTensorBuilder((3, 3))
        with pytest.raises(ValueError, match="out of bounds"):
            builder.add_batch([(0, 3)])
        with pytest.raises(ValueError, match="negative"):
            builder.add_batch([(-1, 0)])

    def test_packed_unfolding_matches_direct(self):
        tensor = random_tensor((6, 7, 8), density=0.2,
                               rng=np.random.default_rng(5))
        builder = StreamingTensorBuilder(tensor.shape)
        builder.add_batch(tensor.coords)
        for mode in range(3):
            direct = PackedUnfolding(unfold(tensor, mode))
            streamed = builder.packed_unfolding(mode)
            assert np.array_equal(streamed.words, direct.words)

    def test_packed_unfolding_through_store(self, tmp_path):
        tensor = random_tensor((6, 7, 8), density=0.2,
                               rng=np.random.default_rng(5))
        builder = StreamingTensorBuilder(tensor.shape)
        builder.add_batch(tensor.coords)
        direct = PackedUnfolding(unfold(tensor, 1))
        with MmapUnfoldingStore(str(tmp_path)) as store:
            streamed = builder.packed_unfolding(1, store=store)
            assert np.array_equal(np.asarray(streamed.words), direct.words)


class TestIterCoordinateBatches:
    def test_chunks_and_remainder(self):
        rows = [(i, i + 1) for i in range(10)]
        batches = list(iter_coordinate_batches(rows, batch_rows=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert all(b.dtype == np.int64 for b in batches)
        stacked = np.concatenate(batches)
        assert np.array_equal(stacked, np.asarray(rows, dtype=np.int64))

    def test_empty_source_yields_nothing(self):
        assert list(iter_coordinate_batches([], batch_rows=4)) == []

    def test_generator_source(self):
        rows = ((i, 0) for i in range(5))
        batches = list(iter_coordinate_batches(rows, batch_rows=2))
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_non_positive_batch_rows_rejected(self):
        with pytest.raises(ValueError, match="batch_rows"):
            list(iter_coordinate_batches([(0, 0)], batch_rows=0))

    def test_feeds_builder_end_to_end(self):
        tensor = random_tensor((5, 6, 7), density=0.25,
                               rng=np.random.default_rng(2))
        builder = StreamingTensorBuilder(tensor.shape)
        rows = (tuple(coord) for coord in tensor.coords)
        for batch in iter_coordinate_batches(rows, batch_rows=16):
            builder.add_batch(batch)
        assert np.array_equal(builder.build().coords, tensor.coords)
