"""Unit tests for the row-summation cache (Lemma 2 and Sec. III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix, packing
from repro.core import RowSummationCache, split_groups
from repro.core.update import kernel_tables


class TestSplitGroups:
    def test_single_group_when_rank_small(self):
        assert split_groups(10, 15) == [(0, 10)]

    def test_paper_example_rank18_v10(self):
        # Lemma 2 example: rank 18, V = 10 -> two tables of 2^9.
        groups = split_groups(18, 10)
        assert groups == [(0, 9), (9, 9)]

    def test_uneven_split(self):
        groups = split_groups(20, 8)
        assert len(groups) == 3
        assert sum(size for _, size in groups) == 20
        sizes = [size for _, size in groups]
        assert max(sizes) - min(sizes) <= 1

    def test_groups_are_contiguous(self):
        groups = split_groups(23, 7)
        cursor = 0
        for start, size in groups:
            assert start == cursor
            cursor += size
        assert cursor == 23

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            split_groups(0, 5)
        with pytest.raises(ValueError):
            split_groups(5, 0)

    @given(st.integers(1, 64), st.integers(1, 62))
    @settings(max_examples=60, deadline=None)
    def test_lemma2_table_count_property(self, rank, group_size):
        groups = split_groups(rank, group_size)
        assert len(groups) == -(-rank // group_size)  # ceil(R / V)
        assert all(size <= group_size for _, size in groups)
        assert sum(size for _, size in groups) == rank


def reference_row_summation(inner_dense, mask):
    """OR of the columns of `inner_dense` selected by `mask`."""
    width = inner_dense.shape[0]
    selected = [r for r in range(inner_dense.shape[1]) if mask & (1 << r)]
    if not selected:
        return np.zeros(width, dtype=np.uint8)
    return (inner_dense[:, selected].sum(axis=1) > 0).astype(np.uint8)


class TestRowSummationCache:
    def _inner(self, width, rank, seed, density=0.4):
        rng = np.random.default_rng(seed)
        return BitMatrix.random(width, rank, density, rng)

    def test_all_masks_single_group(self):
        inner = self._inner(width=20, rank=4, seed=1)
        cache = RowSummationCache(inner, group_size=15)
        assert cache.n_tables == 1
        tables = cache.full_tables
        dense = inner.to_dense()
        for mask in range(16):
            anded = packing.pack_bits(
                np.array([[int(bool(mask & (1 << r))) for r in range(4)]], dtype=np.uint8)
            )
            keys = cache.group_keys(anded)
            fetched = cache.fetch(tables, keys)[0]
            np.testing.assert_array_equal(
                packing.unpack_bits(fetched, 20), reference_row_summation(dense, mask)
            )

    def test_split_groups_give_same_result_as_single(self):
        inner = self._inner(width=30, rank=9, seed=2)
        single = RowSummationCache(inner, group_size=15)
        split = RowSummationCache(inner, group_size=4)
        assert split.n_tables == 3
        rng = np.random.default_rng(3)
        masks = rng.integers(0, 1 << 9, size=50)
        dense_masks = np.array(
            [[int(bool(m & (1 << r))) for r in range(9)] for m in masks], dtype=np.uint8
        )
        anded = packing.pack_bits(dense_masks)
        single_result = single.fetch(single.full_tables, single.group_keys(anded))
        split_result = split.fetch(split.full_tables, split.group_keys(anded))
        np.testing.assert_array_equal(single_result, split_result)

    def test_sliced_tables_match_full(self):
        # A partial block reads the full-width entry and keeps its columns.
        inner = self._inner(width=50, rank=5, seed=4)
        cache = RowSummationCache(inner, group_size=15)
        dense = inner.to_dense()
        for mask in (0, 1, 7, 31):
            anded = packing.pack_bits(
                np.array([[int(bool(mask & (1 << r))) for r in range(5)]], dtype=np.uint8)
            )
            fetched = cache.fetch(cache.full_tables, cache.group_keys(anded))[0]
            np.testing.assert_array_equal(
                packing.unpack_bits(fetched, 50)[10:37],
                reference_row_summation(dense, mask)[10:37],
            )

    def test_full_width_returns_master_tables(self):
        # The column kernel reads the master tables word-major.
        inner = self._inner(width=16, rank=3, seed=6)
        cache = RowSummationCache(inner, group_size=15)
        outer = BitMatrix.random(4, 3, 0.5, np.random.default_rng(6))
        tables = kernel_tables(cache, outer.words)
        np.testing.assert_array_equal(tables.tables[0], cache.full_tables[0].T)

    def test_fetch_table_key_mismatch(self):
        inner = self._inner(width=16, rank=3, seed=8)
        cache = RowSummationCache(inner, group_size=15)
        with pytest.raises(ValueError):
            cache.fetch(cache.full_tables, [])

    def test_n_entries_lemma2_bound(self):
        inner = self._inner(width=8, rank=18, seed=9)
        cache = RowSummationCache(inner, group_size=10)
        # Two tables of 2^9 entries each.
        assert cache.n_entries == 2 * 2**9

    def test_vectorized_keys_shape(self):
        inner = self._inner(width=12, rank=6, seed=10)
        cache = RowSummationCache(inner, group_size=3)
        rng = np.random.default_rng(11)
        dense_masks = (rng.random((7, 6)) < 0.5).astype(np.uint8)
        anded = packing.pack_bits(dense_masks)
        keys = cache.group_keys(anded)
        assert len(keys) == 2
        assert all(key.shape == (7,) for key in keys)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 62), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_cache_matches_reference_property(self, width, rank, group_size, seed):
        rng = np.random.default_rng(seed)
        inner = BitMatrix.random(width, rank, 0.5, rng)
        cache = RowSummationCache(inner, group_size=group_size)
        mask = int(rng.integers(0, 1 << rank))
        dense_mask = np.array(
            [[int(bool(mask & (1 << r))) for r in range(rank)]], dtype=np.uint8
        )
        anded = packing.pack_bits(dense_mask)
        fetched = cache.fetch(cache.full_tables, cache.group_keys(anded))[0]
        np.testing.assert_array_equal(
            packing.unpack_bits(fetched, width),
            reference_row_summation(inner.to_dense(), mask),
        )
