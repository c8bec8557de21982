"""Unit tests for the bit-packing primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import packing


class TestWordsForBits:
    def test_zero(self):
        assert packing.words_for_bits(0) == 0

    def test_one(self):
        assert packing.words_for_bits(1) == 1

    def test_exact_word(self):
        assert packing.words_for_bits(64) == 1

    def test_word_plus_one(self):
        assert packing.words_for_bits(65) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            packing.words_for_bits(-1)


class TestPackUnpackRoundTrip:
    @pytest.mark.parametrize("n_bits", [1, 7, 8, 63, 64, 65, 128, 200])
    def test_round_trip(self, n_bits):
        rng = np.random.default_rng(n_bits)
        dense = (rng.random((5, n_bits)) < 0.5).astype(np.uint8)
        packed = packing.pack_bits(dense)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, packing.words_for_bits(n_bits))
        np.testing.assert_array_equal(packing.unpack_bits(packed, n_bits), dense)

    def test_bit_positions_lsb_first(self):
        dense = np.zeros((1, 70), dtype=np.uint8)
        dense[0, 0] = 1
        dense[0, 65] = 1
        packed = packing.pack_bits(dense)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 2  # bit 65 -> word 1, offset 1

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            packing.pack_bits(np.uint8(1))

    def test_multidimensional_leading_axes(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((2, 3, 90)) < 0.4).astype(np.uint8)
        packed = packing.pack_bits(dense)
        assert packed.shape == (2, 3, 2)
        np.testing.assert_array_equal(packing.unpack_bits(packed, 90), dense)

    @given(st.integers(1, 150), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((3, n_bits)) < 0.5).astype(np.uint8)
        packed = packing.pack_bits(dense)
        np.testing.assert_array_equal(packing.unpack_bits(packed, n_bits), dense)


class TestPopcount:
    def test_popcount_total(self):
        dense = np.array([[1, 0, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)
        assert packing.popcount(packing.pack_bits(dense)) == 4

    def test_popcount_rows(self):
        dense = np.array([[1, 0, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            packing.popcount_rows(packing.pack_bits(dense)), [3, 1]
        )

    def test_popcount_matches_dense_sum(self):
        rng = np.random.default_rng(9)
        dense = (rng.random((7, 130)) < 0.3).astype(np.uint8)
        assert packing.popcount(packing.pack_bits(dense)) == int(dense.sum())


class TestSliceBits:
    @pytest.mark.parametrize(
        "n_bits,start,stop",
        [
            (10, 0, 10),
            (10, 2, 7),
            (100, 0, 64),
            (100, 64, 100),
            (100, 60, 70),
            (200, 63, 129),
            (200, 1, 200),
            (64, 0, 0),
        ],
    )
    def test_matches_dense_slice(self, n_bits, start, stop):
        rng = np.random.default_rng(n_bits + start + stop)
        dense = (rng.random((4, n_bits)) < 0.5).astype(np.uint8)
        packed = packing.pack_bits(dense)
        sliced = packing.slice_bits(packed, start, stop)
        np.testing.assert_array_equal(
            packing.unpack_bits(sliced, stop - start), dense[:, start:stop]
        )

    def test_padding_bits_cleared(self):
        dense = np.ones((1, 128), dtype=np.uint8)
        sliced = packing.slice_bits(packing.pack_bits(dense), 3, 10)
        # 7 set bits, no garbage above.
        assert packing.popcount(sliced) == 7

    def test_invalid_range_rejected(self):
        packed = packing.pack_bits(np.ones((1, 10), dtype=np.uint8))
        with pytest.raises(ValueError):
            packing.slice_bits(packed, 5, 3)

    @given(st.integers(1, 200), st.data())
    @settings(max_examples=50, deadline=None)
    def test_slice_property(self, n_bits, data):
        start = data.draw(st.integers(0, n_bits))
        stop = data.draw(st.integers(start, n_bits))
        rng = np.random.default_rng(n_bits * 1000 + start)
        dense = (rng.random((2, n_bits)) < 0.5).astype(np.uint8)
        sliced = packing.slice_bits(packing.pack_bits(dense), start, stop)
        np.testing.assert_array_equal(
            packing.unpack_bits(sliced, stop - start), dense[:, start:stop]
        )


class TestScatterBits:
    def test_set_then_clear_matches_dense(self):
        rng = np.random.default_rng(0)
        n_rows, n_blocks, n_bits = 5, 3, 70
        rows = rng.integers(0, n_rows, 40)
        blocks = rng.integers(0, n_blocks, 40)
        offsets = rng.integers(0, n_bits, 40)
        bits = packing.cell_bits(
            rows, blocks, offsets, n_blocks, packing.words_for_bits(n_bits)
        )
        for dtype in (np.uint32, np.int64):
            dense = np.zeros((n_rows, n_blocks, n_bits), dtype=np.uint8)
            dense[rows, blocks, offsets] = 1
            words = packing.packed_zeros((n_rows, n_blocks), n_bits)
            # Repeated cells set their bit once.
            packing.scatter_bits(words, bits.astype(dtype))
            np.testing.assert_array_equal(
                packing.unpack_bits(words, n_bits), dense
            )
            dense[rows[:10], blocks[:10], offsets[:10]] = 0
            packing.scatter_bits(words, bits[:10].astype(dtype), False)
            np.testing.assert_array_equal(
                packing.unpack_bits(words, n_bits), dense
            )

    def test_non_contiguous_rejected(self):
        words = packing.packed_zeros((4, 6), 10)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            packing.scatter_bits(words, np.zeros(1, dtype=np.int64))


class TestMasks:
    def test_mask_round_trip(self):
        indices = [0, 3, 17, 63, 64, 100]
        mask = packing.mask_from_indices(indices)
        assert packing.indices_from_mask(mask) == indices

    def test_empty_mask(self):
        assert packing.mask_from_indices([]) == 0
        assert packing.indices_from_mask(0) == []

    def test_single_bit(self):
        assert packing.mask_from_indices([5]) == 32


class TestSetGetBit:
    def test_set_then_get(self):
        packed = packing.packed_zeros((3,), 100)
        packing.set_bit(packed, 1, 70, 1)
        assert packing.get_bit(packed, 1, 70) == 1
        assert packing.get_bit(packed, 1, 69) == 0
        assert packing.get_bit(packed, 0, 70) == 0

    def test_clear_bit(self):
        packed = packing.packed_zeros((1,), 64)
        packing.set_bit(packed, 0, 10, 1)
        packing.set_bit(packed, 0, 10, 0)
        assert packing.get_bit(packed, 0, 10) == 0
