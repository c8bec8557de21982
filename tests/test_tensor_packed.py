"""Unit tests for the bit-packed unfolding storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import PackedUnfolding, SparseBoolTensor, unfold


def random_tensor(shape, seed, density=0.3):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density).astype(np.uint8)
    return SparseBoolTensor.from_dense(dense), dense


class TestPackedUnfolding:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(3, 4, 5), (8, 8, 8), (2, 70, 3), (70, 2, 3)])
    def test_matches_sparse_unfolding(self, mode, shape):
        tensor, _ = random_tensor(shape, seed=hash((mode, shape)) % 1000)
        unfolding = unfold(tensor, mode)
        packed = PackedUnfolding(unfolding)
        np.testing.assert_array_equal(packed.to_dense(), unfolding.to_dense())

    def test_nnz_preserved(self):
        tensor, dense = random_tensor((6, 7, 8), seed=1)
        packed = PackedUnfolding(unfold(tensor, 0))
        assert packed.nnz() == int(dense.sum())

    def test_words_hold_inner_fiber(self):
        # Block k of row i in mode-0 is the tube x_{i,:,k}.
        tensor, dense = random_tensor((4, 5, 6), seed=2)
        packed = PackedUnfolding(unfold(tensor, 0))
        from repro.bitops import packing

        for i in range(4):
            for k in range(6):
                block = packing.unpack_bits(packed.words[i, k], 5)
                np.testing.assert_array_equal(block, dense[i, :, k])

    def test_empty_tensor(self):
        packed = PackedUnfolding(unfold(SparseBoolTensor.empty((2, 3, 4)), 1))
        assert packed.nnz() == 0
        assert packed.words.shape == (3, 4, 1)

    def test_duplicate_bit_or_semantics(self):
        # Setting the same bit twice must still yield a single 1.
        tensor = SparseBoolTensor.from_nonzeros((2, 2, 2), [(0, 1, 1), (0, 1, 1)])
        packed = PackedUnfolding(unfold(tensor, 0))
        assert packed.nnz() == 1

    def test_nbytes_positive(self):
        tensor, _ = random_tensor((3, 3, 3), seed=4)
        assert PackedUnfolding(unfold(tensor, 0)).nbytes > 0

    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 80), st.integers(1, 6)),
        st.integers(0, 2),
        st.integers(0, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_pack_property(self, shape, mode, seed):
        tensor, _ = random_tensor(shape, seed)
        unfolding = unfold(tensor, mode)
        packed = PackedUnfolding(unfolding)
        np.testing.assert_array_equal(packed.to_dense(), unfolding.to_dense())
