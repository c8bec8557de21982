"""Equivalence tests for the batched Boolean kernels and packing helpers.

Every vectorized fast path added for the factor-update hot path is pinned
against its loop-form reference: the batched ``boolean_matmul`` table
gather vs the per-row loop, the ``xor_popcount`` kernels vs
XOR-then-popcount, the packed column accessors vs per-row ``get_bit``/
``set_bit``, and the vectorized integer-mask helpers vs their Python-loop
definitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import (
    BitMatrix,
    boolean_matmul,
    khatri_rao,
    packing,
    xor_popcount,
)
from repro.bitops.ops import _boolean_matmul_batched, _boolean_matmul_rowloop


def random_bitmatrix(n_rows, n_cols, seed, density=0.4):
    rng = np.random.default_rng(seed)
    return BitMatrix.random(n_rows, n_cols, density, rng)


class TestBatchedMatmul:
    @given(
        st.integers(1, 80),
        st.integers(1, 70),
        st.integers(1, 70),
        st.integers(0, 999),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_rowloop(self, m, k, n, seed):
        left = random_bitmatrix(m, k, seed)
        right = random_bitmatrix(k, n, seed + 1)
        assert _boolean_matmul_batched(left, right) == _boolean_matmul_rowloop(
            left, right
        )

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 65, 129])
    def test_partial_byte_groups(self, k):
        # Inner dimensions not divisible by 8 leave a partial last table
        # group; padding bits being zero must keep the gather in range.
        left = random_bitmatrix(40, k, k)
        right = random_bitmatrix(k, 20, k + 1)
        assert _boolean_matmul_batched(left, right) == _boolean_matmul_rowloop(
            left, right
        )

    def test_dispatch_threshold(self):
        # The public entry point agrees with the row loop on row counts
        # either side of one 32-row block.
        for m in (31, 32, 33):
            left = random_bitmatrix(m, 12, m)
            right = random_bitmatrix(12, 9, m + 1)
            assert boolean_matmul(left, right) == _boolean_matmul_rowloop(
                left, right
            )

    def test_empty_rows_stay_zero(self):
        left = BitMatrix.from_dense(np.zeros((64, 16), dtype=np.uint8))
        right = random_bitmatrix(16, 10, 3)
        product = boolean_matmul(left, right)
        assert product.to_dense().sum() == 0


class TestPackedKhatriRao:
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 70),
           st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_definition(self, p, q, r, seed):
        left = random_bitmatrix(p, r, seed)
        right = random_bitmatrix(q, r, seed + 1)
        product = khatri_rao(left, right)
        left_dense = left.to_dense()
        right_dense = right.to_dense()
        expected = np.zeros((p * q, r), dtype=np.uint8)
        for i in range(p):
            for j in range(q):
                expected[i * q + j] = left_dense[i] & right_dense[j]
        np.testing.assert_array_equal(product.to_dense(), expected)


class TestXorPopcount:
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_reference(self, n_rows, n_words, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2**63, size=(n_rows, n_words)).astype(np.uint64)
        b = rng.integers(0, 2**63, size=(n_rows, n_words)).astype(np.uint64)
        assert xor_popcount(a, b) == packing.popcount(a ^ b)

    def test_inputs_not_mutated(self):
        a = np.array([[np.uint64(0b1010)]])
        b = np.array([[np.uint64(0b0110)]])
        assert xor_popcount(a, b) == 2
        assert a[0, 0] == 0b1010 and b[0, 0] == 0b0110


class TestBitColumns:
    @given(st.integers(1, 8), st.integers(1, 130), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_bit_column_matches_get_bit(self, n_rows, n_bits, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n_rows, n_bits)) < 0.5).astype(np.uint8)
        packed = packing.pack_bits(dense)
        for bit in {0, n_bits // 2, n_bits - 1}:
            expected = np.array(
                [packing.get_bit(packed, row, bit) for row in range(n_rows)],
                dtype=np.uint8,
            )
            np.testing.assert_array_equal(
                packing.bit_column(packed, bit), expected
            )

    @given(st.integers(1, 8), st.integers(1, 130), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_set_bit_column_matches_set_bit(self, n_rows, n_bits, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n_rows, n_bits)) < 0.5).astype(np.uint8)
        values = (rng.random(n_rows) < 0.5).astype(np.uint8)
        bit = int(rng.integers(0, n_bits))
        vectorized = packing.pack_bits(dense)
        packing.set_bit_column(vectorized, bit, values)
        reference = packing.pack_bits(dense)
        for row in range(n_rows):
            packing.set_bit(reference, row, bit, int(values[row]))
        np.testing.assert_array_equal(vectorized, reference)


class TestMaskHelpers:
    """Satellite: vectorized mask_from_indices / indices_from_mask."""

    @given(st.lists(st.integers(0, 300), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_mask_from_indices_matches_loop(self, indices):
        expected = 0
        for index in indices:
            expected |= 1 << index
        assert packing.mask_from_indices(indices) == expected

    @given(st.integers(0, 2**200 - 1))
    @settings(max_examples=60, deadline=None)
    def test_indices_from_mask_matches_loop(self, mask):
        expected = [p for p in range(mask.bit_length()) if (mask >> p) & 1]
        assert packing.indices_from_mask(mask) == expected

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, indices):
        mask = packing.mask_from_indices(indices)
        assert packing.indices_from_mask(mask) == sorted(set(indices))

    def test_numpy_input_and_duplicates(self):
        assert packing.mask_from_indices(np.array([5, 5, 2])) == 0b100100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            packing.mask_from_indices([3, -1])
        with pytest.raises(ValueError):
            packing.indices_from_mask(-1)


class TestSliceBitsEdges:
    """Satellite: word-boundary and zero-width slices."""

    @pytest.mark.parametrize(
        "start,stop",
        [(0, 0), (64, 64), (100, 100), (192, 192), (63, 64), (64, 65),
         (127, 129), (0, 192), (64, 128), (128, 192)],
    )
    def test_word_boundaries_and_zero_width(self, start, stop):
        rng = np.random.default_rng(start * 1000 + stop)
        dense = (rng.random((3, 192)) < 0.5).astype(np.uint8)
        sliced = packing.slice_bits(packing.pack_bits(dense), start, stop)
        assert sliced.shape == (3, packing.words_for_bits(stop - start))
        np.testing.assert_array_equal(
            packing.unpack_bits(sliced, stop - start), dense[:, start:stop]
        )

    def test_zero_width_slice_has_empty_word_axis(self):
        packed = packing.pack_bits(np.ones((2, 64), dtype=np.uint8))
        sliced = packing.slice_bits(packed, 30, 30)
        assert sliced.shape == (2, 0)
        assert sliced.dtype == np.uint64
