"""Extra cache tests: multi-word widths and cross-word group keys."""

import numpy as np
import pytest

from repro.bitops import BitMatrix, packing
from repro.core import RowSummationCache


class TestWideCaches:
    def test_width_beyond_one_word(self):
        # Inner matrices wider than 64 columns pack into multiple words;
        # the cached summations must still match a dense reference.
        rng = np.random.default_rng(0)
        inner = BitMatrix.random(130, 4, 0.4, rng)
        cache = RowSummationCache(inner, group_size=15)
        dense = inner.to_dense()
        for mask in (0b0000, 0b0101, 0b1111):
            packed_mask = packing.pack_bits(
                np.array([[(mask >> r) & 1 for r in range(4)]], dtype=np.uint8)
            )
            fetched = cache.fetch(
                cache.full_tables, cache.group_keys(packed_mask)
            )[0]
            selected = [r for r in range(4) if mask & (1 << r)]
            expected = (
                (dense[:, selected].sum(axis=1) > 0).astype(np.uint8)
                if selected
                else np.zeros(130, dtype=np.uint8)
            )
            np.testing.assert_array_equal(
                packing.unpack_bits(fetched, 130), expected
            )

    def test_group_keys_crossing_word_boundary(self):
        # Rank > 64 forces mask words > 1; a group straddling the word
        # boundary must take the slice_bits slow path and stay correct.
        rng = np.random.default_rng(1)
        rank = 70
        inner = BitMatrix.random(8, rank, 0.3, rng)
        # Groups of 18/17: the last group covers bits [53, 70), crossing
        # the 64-bit word boundary — the slice_bits slow path.
        cache = RowSummationCache(inner, group_size=18)
        assert any(
            start // 64 != (start + size - 1) // 64 for start, size in cache.groups
        )
        masks = BitMatrix.random(5, rank, 0.5, rng)
        keys = cache.group_keys(masks.words)
        for row in range(5):
            row_mask = masks.row_mask(row)
            for (start, size), key_array in zip(cache.groups, keys):
                expected = (row_mask >> start) & ((1 << size) - 1)
                assert int(key_array[row]) == expected

    def test_fetch_through_cross_word_keys(self):
        # End-to-end over the slow path: with rank 130 the masks span three
        # words and most groups straddle word boundaries; fetched summations
        # must still match the dense reference.
        rng = np.random.default_rng(3)
        rank = 130
        inner = BitMatrix.random(12, rank, 0.2, rng)
        cache = RowSummationCache(inner, group_size=12)
        assert any(
            start // 64 != (start + size - 1) // 64 for start, size in cache.groups
        )
        masks = BitMatrix.random(6, rank, 0.3, rng)
        fetched = cache.fetch(cache.full_tables, cache.group_keys(masks.words))
        dense_inner = inner.to_dense()
        dense_masks = masks.to_dense().astype(bool)
        for row in range(6):
            selected = np.flatnonzero(dense_masks[row])
            expected = (
                (dense_inner[:, selected].sum(axis=1) > 0).astype(np.uint8)
                if selected.size
                else np.zeros(12, dtype=np.uint8)
            )
            np.testing.assert_array_equal(
                packing.unpack_bits(fetched[row], 12), expected
            )

    def test_sliced_tables_on_wide_inner(self):
        rng = np.random.default_rng(2)
        inner = BitMatrix.random(200, 3, 0.4, rng)
        cache = RowSummationCache(inner, group_size=15)
        dense = inner.to_dense()
        packed_mask = packing.pack_bits(
            np.array([[0, 1, 1]], dtype=np.uint8)
        )
        # A partial block reads the full-width entry and keeps its columns.
        fetched = cache.fetch(cache.full_tables, cache.group_keys(packed_mask))
        expected = (dense[60:135, [1, 2]].sum(axis=1) > 0).astype(np.uint8)
        np.testing.assert_array_equal(
            packing.unpack_bits(fetched[0], 200)[60:135], expected
        )
