"""Unit tests for BitMatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix


def random_dense(n_rows, n_cols, seed, density=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((n_rows, n_cols)) < density).astype(np.uint8)


class TestConstruction:
    def test_from_dense_round_trip(self):
        dense = random_dense(6, 70, seed=1)
        matrix = BitMatrix.from_dense(dense)
        assert matrix.shape == (6, 70)
        np.testing.assert_array_equal(matrix.to_dense(), dense)

    def test_zeros(self):
        matrix = BitMatrix.zeros(4, 9)
        assert matrix.count_nonzeros() == 0
        assert matrix.shape == (4, 9)

    def test_identity(self):
        matrix = BitMatrix.identity(5)
        np.testing.assert_array_equal(matrix.to_dense(), np.eye(5, dtype=np.uint8))

    def test_random_density(self):
        rng = np.random.default_rng(0)
        matrix = BitMatrix.random(200, 200, 0.3, rng)
        assert 0.25 < matrix.density() < 0.35

    def test_random_invalid_density(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BitMatrix.random(2, 2, 1.5, rng)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(-1, 3)

    def test_bad_words_shape_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(2, 64, np.zeros((2, 2), dtype=np.uint64))

    def test_set_padding_bits_rejected(self):
        with pytest.raises(ValueError, match="1x3"):
            BitMatrix(1, 3, [[0b100101]])

    def test_padding_tail_in_last_word_of_multi_word_row_rejected(self):
        words = BitMatrix.from_dense(random_dense(3, 70, seed=4)).words.copy()
        # Column 70 is bit 6 of word 1: padding for a 70-column matrix.
        words[2, 1] |= np.uint64(1 << 6)
        with pytest.raises(ValueError, match="beyond column 70 of a 3x70"):
            BitMatrix(3, 70, words)

    def test_full_last_word_and_clear_padding_accepted(self):
        full = np.full((2, 2), np.iinfo(np.uint64).max, dtype=np.uint64)
        assert BitMatrix(2, 128, full).count_nonzeros() == 256
        dense = random_dense(2, 70, seed=5)
        assert BitMatrix(2, 70, BitMatrix.from_dense(dense).words) == (
            BitMatrix.from_dense(dense)
        )

    def test_copy_is_independent(self):
        matrix = BitMatrix.from_dense(random_dense(3, 10, seed=2))
        clone = matrix.copy()
        clone.set(0, 0, 1 - clone.get(0, 0))
        assert matrix != clone


class TestElementAccess:
    def test_get_set(self):
        matrix = BitMatrix.zeros(3, 100)
        matrix.set(2, 99, 1)
        assert matrix.get(2, 99) == 1
        matrix.set(2, 99, 0)
        assert matrix.get(2, 99) == 0

    def test_out_of_bounds(self):
        matrix = BitMatrix.zeros(3, 4)
        with pytest.raises(IndexError):
            matrix.get(3, 0)
        with pytest.raises(IndexError):
            matrix.set(0, 4, 1)

    def test_column_round_trip(self):
        dense = random_dense(8, 5, seed=3)
        matrix = BitMatrix.from_dense(dense)
        for col in range(5):
            np.testing.assert_array_equal(matrix.column(col), dense[:, col])

    def test_set_column(self):
        matrix = BitMatrix.zeros(6, 10)
        values = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        matrix.set_column(7, values)
        np.testing.assert_array_equal(matrix.column(7), values)
        # Neighbouring columns untouched.
        assert matrix.column(6).sum() == 0
        assert matrix.column(8).sum() == 0

    def test_set_column_wrong_length(self):
        matrix = BitMatrix.zeros(6, 10)
        with pytest.raises(ValueError):
            matrix.set_column(0, np.ones(5, dtype=np.uint8))

    def test_row_mask(self):
        matrix = BitMatrix.from_dense(np.array([[1, 0, 1, 1]], dtype=np.uint8))
        assert matrix.row_mask(0) == 0b1101

    def test_row_mask_beyond_64_bits(self):
        dense = np.zeros((1, 70), dtype=np.uint8)
        dense[0, 69] = 1
        dense[0, 0] = 1
        matrix = BitMatrix.from_dense(dense)
        assert matrix.row_mask(0) == (1 << 69) | 1


class TestBooleanOps:
    def test_or_and_xor(self):
        left = BitMatrix.from_dense(np.array([[1, 0, 1]], dtype=np.uint8))
        right = BitMatrix.from_dense(np.array([[0, 0, 1]], dtype=np.uint8))
        np.testing.assert_array_equal(left.boolean_or(right).to_dense(), [[1, 0, 1]])
        np.testing.assert_array_equal(left.boolean_and(right).to_dense(), [[0, 0, 1]])
        np.testing.assert_array_equal(left.xor(right).to_dense(), [[1, 0, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 3).boolean_or(BitMatrix.zeros(3, 2))

    def test_hamming_distance(self):
        left = BitMatrix.from_dense(random_dense(5, 33, seed=4))
        right = BitMatrix.from_dense(random_dense(5, 33, seed=5))
        expected = int((left.to_dense() != right.to_dense()).sum())
        assert left.hamming_distance(right) == expected

    def test_transpose(self):
        dense = random_dense(4, 9, seed=8)
        np.testing.assert_array_equal(
            BitMatrix.from_dense(dense).transpose().to_dense(), dense.T
        )

    @given(st.integers(1, 20), st.integers(1, 130), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_or_is_commutative_idempotent(self, n_rows, n_cols, seed):
        left = BitMatrix.from_dense(random_dense(n_rows, n_cols, seed))
        right = BitMatrix.from_dense(random_dense(n_rows, n_cols, seed + 1))
        assert left.boolean_or(right) == right.boolean_or(left)
        assert left.boolean_or(left) == left


class TestDunder:
    def test_equality(self):
        dense = random_dense(3, 7, seed=10)
        assert BitMatrix.from_dense(dense) == BitMatrix.from_dense(dense)
        assert BitMatrix.from_dense(dense) != BitMatrix.zeros(3, 7)

    def test_equality_other_type(self):
        assert BitMatrix.zeros(1, 1) != "not a matrix"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitMatrix.zeros(1, 1))

    def test_repr(self):
        assert "BitMatrix(2x3" in repr(BitMatrix.zeros(2, 3))
