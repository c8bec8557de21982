"""Brute-force oracle for DBTF's column kernel (:func:`repro.core.update.column_errors`).

The kernel evaluates one partition's selected PVM blocks in one batched
pass: keys as ``row_key & outer_key``, word-major table gathers, partial
blocks masked by a window over full-width words, and the error change
counted as ``popcount(cover & ~rec0) - 2 * popcount(cover & ~rec0 & X)``.
Here every one of those steps is skipped.  The reconstruction of both
candidate values is rebuilt densely from the factor matrices, and each
row's errors are counted over the partition's columns of the dense
unfolding.  The kernel's per-row change and its seed errors must match
exactly, over:

* ranks with one and with several cache groups, including a group that
  crosses a 64-bit word of the target masks;
* partitions with prefix, suffix and interior edge blocks, and with no
  blocks at all;
* slabs packed from the partition's own columns and slabs that view a
  shared unfolding, so their edge PVMs carry the neighbours' bits;
* outer columns with no active block in the partition;
* the seed (every block) and the active-only paths.

Boolean Tucker runs the same kernel on stacked per-pattern tables
(:func:`~repro.core.update.tucker_kernel_tables`).  Its cases draw a random
core (or one whose evaluated slice is empty, or a dense one) and outer rows
from a few repeated patterns that include the all-zero one, and rebuild the
reconstruction densely from ``x = OR g_tio AND a_rt AND b_wi AND c_jo``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix, packing
from repro.core import RowSummationCache, make_partition_plans
from repro.core.partition import BlockType, PartitionData
from repro.core.update import (
    column_errors,
    column_keys,
    kernel_tables,
    tucker_kernel_tables,
)

#: (rank, group size V): one group, two groups, and seven groups of 10
#: whose seventh, bits [60, 70), straddles the first word boundary.
GROUPINGS = [(3, 15), (5, 5), (6, 3), (9, 5), (70, 10)]


def _case(rng, n_rows, n_pvms, width, grouping, n_partitions, index, *,
          view, active, density=0.3):
    """One kernel evaluation and its dense reference."""
    rank, group_size = grouping
    target = BitMatrix.random(n_rows, rank, 0.4, rng)
    outer = BitMatrix.random(n_pvms, rank, 0.5, rng)
    inner = BitMatrix.random(width, rank, 0.4, rng)
    column = int(rng.integers(rank))
    plan = make_partition_plans(n_pvms, width, n_partitions)[index]
    span = plan.pvm_span
    if active is not None:
        # Force the partition's blocks all inactive or all active.
        bits = outer.column(column)
        bits[span] = active
        outer.set_column(column, bits)
    unfolded = (rng.random((n_rows, n_pvms * width)) < density).astype(np.uint8)
    shared = packing.pack_bits(unfolded.reshape(n_rows, n_pvms, width))
    if view:
        # A view of the whole unfolding: the edge PVMs keep the
        # neighbouring partitions' bits.
        words = shared[:, span]
    else:
        own = np.zeros_like(unfolded)
        own[:, plan.col_start : plan.col_stop] = (
            unfolded[:, plan.col_start : plan.col_stop]
        )
        words = packing.pack_bits(own.reshape(n_rows, n_pvms, width)[:, span])
    data = PartitionData(plan=plan, words=words)

    tables = kernel_tables(RowSummationCache(inner, group_size), outer.words)
    keys = column_keys(tables, target.words, column)

    # Dense reference: reconstruct both candidates from the factors.
    a_zero = target.to_dense().astype(bool)
    a_zero[:, column] = False
    c_dense = outer.to_dense().astype(bool)
    b_dense = inner.to_dense().astype(bool)
    # rec[r, j, w] = OR_q a[r, q] & c[j, q] & b[w, q]
    rec_zero = np.einsum(
        "rq,jq,wq->rjw", a_zero, c_dense, b_dense, dtype=np.int64
    ) > 0
    cover = c_dense[:, column][:, None] & b_dense[:, column][None, :]
    rec_one = rec_zero | cover[None]
    tensor = unfolded.reshape(n_rows, n_pvms, width).astype(bool)
    columns = slice(plan.col_start, plan.col_stop)
    zero = (rec_zero ^ tensor).reshape(n_rows, -1)[:, columns].sum(axis=1)
    one = (rec_one ^ tensor).reshape(n_rows, -1)[:, columns].sum(axis=1)
    return data, tables, keys, zero, one


def _tucker_case(rng, n_rows, n_pvms, width, grouping, n_partitions, index,
                 *, view, core, density=0.3):
    """One kernel evaluation on Tucker's stacked tables, and its reference.

    ``core`` is ``"random"``, ``"empty"`` (the evaluated column's slice is
    zero, so no block is active) or ``"dense"``.
    """
    rank, group_size = grouping
    n_inner, n_outer = (int(n) for n in rng.integers(1, 5, size=2))
    column = int(rng.integers(rank))
    g = (rng.random((rank, n_inner, n_outer)) < 0.3).astype(np.uint8)
    if core == "empty":
        g[column] = 0
    elif core == "dense":
        g[:] = 1
    target = BitMatrix.random(n_rows, rank, 0.4, rng)
    inner = BitMatrix.random(width, n_inner, 0.4, rng)
    # A few patterns, each repeated, one of them all zero.
    pool = (rng.random((3, n_outer)) < 0.5).astype(np.uint8)
    pool[0] = 0
    outer = BitMatrix.from_dense(pool[rng.integers(len(pool), size=n_pvms)])
    plan = make_partition_plans(n_pvms, width, n_partitions)[index]
    span = plan.pvm_span
    unfolded = (rng.random((n_rows, n_pvms * width)) < density).astype(np.uint8)
    if view:
        words = packing.pack_bits(unfolded.reshape(n_rows, n_pvms, width))[:, span]
    else:
        own = np.zeros_like(unfolded)
        own[:, plan.col_start : plan.col_stop] = (
            unfolded[:, plan.col_start : plan.col_stop]
        )
        words = packing.pack_bits(own.reshape(n_rows, n_pvms, width)[:, span])
    data = PartitionData(plan=plan, words=words)

    tables = tucker_kernel_tables(outer, inner, g, group_size)
    n_patterns = len(np.unique(outer.to_dense(), axis=0))
    for table, (_, size) in zip(tables.tables, tables.groups):
        assert table.shape == (packing.words_for_bits(width), n_patterns << size)
    keys = column_keys(tables, target.words, column)

    # Dense reference: cover[t, j, w] = OR_io g[t, i, o] & c[j, o] & b[w, i].
    a_zero = target.to_dense().astype(np.int64)
    a_zero[:, column] = 0
    cover = np.einsum(
        "tio,jo,wi->tjw", g, outer.to_dense(), inner.to_dense(),
        dtype=np.int64,
    ) > 0
    rec_zero = np.einsum("rt,tjw->rjw", a_zero, cover, dtype=np.int64) > 0
    rec_one = rec_zero | cover[column][None]
    tensor = unfolded.reshape(n_rows, n_pvms, width).astype(bool)
    columns = slice(plan.col_start, plan.col_stop)
    zero = (rec_zero ^ tensor).reshape(n_rows, -1)[:, columns].sum(axis=1)
    one = (rec_one ^ tensor).reshape(n_rows, -1)[:, columns].sum(axis=1)
    return data, tables, keys, zero, one


def _check(data, tables, keys, zero, one, seed):
    change, error_if_zero = column_errors(data, tables, keys, seed=seed)
    assert change.dtype == np.int64 and change.shape == zero.shape
    np.testing.assert_array_equal(change, one - zero)
    if seed:
        np.testing.assert_array_equal(error_if_zero, zero)
    else:
        assert error_if_zero is None


@st.composite
def cases(draw):
    n_pvms = draw(st.integers(1, 6))
    width = draw(st.sampled_from([1, 3, 7, 63, 64, 65, 70]))
    n_partitions = draw(st.integers(1, n_pvms * width + 2))
    return dict(
        n_rows=draw(st.integers(1, 9)),
        n_pvms=n_pvms,
        width=width,
        grouping=draw(st.sampled_from(GROUPINGS)),
        n_partitions=n_partitions,
        index=draw(st.integers(0, n_partitions - 1)),
        view=draw(st.booleans()),
        active=draw(st.sampled_from([None, None, 0, 1])),
    )


@settings(max_examples=150, deadline=None)
@given(case=cases(), seed=st.booleans(), rng_seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_dense_recomputation(case, seed, rng_seed):
    rng = np.random.default_rng(rng_seed)
    _check(*_case(rng, **case), seed)


#: Fixed partitions that pin each shape the random draw may miss:
#: (n_pvms, width, n_partitions, index, block types of that partition).
SHAPES = [
    # 4 x 7 columns in 3 partitions: [0, 10) ends in a prefix block,
    # [10, 19) has a suffix and a prefix, [19, 28) starts with a suffix.
    (4, 7, 3, 0, {BlockType.FULL, BlockType.PREFIX}),
    (4, 7, 3, 1, {BlockType.SUFFIX, BlockType.PREFIX}),
    (4, 7, 3, 2, {BlockType.SUFFIX, BlockType.FULL}),
    # 2 x 70 columns in 5 partitions: [28, 56) is strictly inside PVM 0,
    # and [56, 84) starts with a suffix whose window straddles the slab's
    # 64-bit word boundary.
    (2, 70, 5, 1, {BlockType.INTERIOR}),
    (2, 70, 5, 2, {BlockType.SUFFIX, BlockType.PREFIX}),
    # 3 x 2 columns in 9 partitions: the last three hold no columns.
    (3, 2, 9, 8, set()),
]


@pytest.mark.parametrize("n_pvms, width, n_partitions, index, types", SHAPES)
@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("active", [None, 0, 1])
@pytest.mark.parametrize("seed", [False, True])
def test_edge_shapes(n_pvms, width, n_partitions, index, types, grouping,
                     view, active, seed):
    rng = np.random.default_rng(
        [n_pvms, width, index, grouping[0], int(view), 2 if active is None else active]
    )
    data, tables, keys, zero, one = _case(
        rng, 5, n_pvms, width, grouping, n_partitions, index,
        view=view, active=active,
    )
    assert data.plan.block_types() == types
    if view and types - {BlockType.FULL}:
        # The edge PVMs really carry bits outside the partition.
        inside = np.zeros((5, n_pvms * width), dtype=bool)
        inside[:, data.plan.col_start : data.plan.col_stop] = True
        span = data.plan.pvm_span
        dense = packing.unpack_bits(data.words, width).astype(bool)
        outside = ~inside.reshape(5, n_pvms, width)[:, span]
        assert (dense & outside).any()
    if active == 0 and not seed:
        # No active block: nothing to gather, and no row can gain.
        unreadable = tables._replace(tables=[None] * len(tables.tables))
        _check(data, unreadable, keys, zero, one, seed)
    else:
        _check(data, tables, keys, zero, one, seed)


@st.composite
def tucker_cases(draw):
    case = draw(cases())
    del case["active"]
    case["core"] = draw(st.sampled_from(["random", "random", "empty", "dense"]))
    return case


@settings(max_examples=150, deadline=None)
@given(case=tucker_cases(), seed=st.booleans(),
       rng_seed=st.integers(0, 2**32 - 1))
def test_tucker_kernel_matches_dense_recomputation(case, seed, rng_seed):
    rng = np.random.default_rng(rng_seed)
    _check(*_tucker_case(rng, **case), seed)


@pytest.mark.parametrize("n_pvms, width, n_partitions, index, types", SHAPES)
@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("core", ["random", "empty", "dense"])
@pytest.mark.parametrize("seed", [False, True])
def test_tucker_edge_shapes(n_pvms, width, n_partitions, index, types,
                            grouping, view, core, seed):
    rng = np.random.default_rng(
        [n_pvms, width, index, grouping[0], int(view), len(core)]
    )
    data, tables, keys, zero, one = _tucker_case(
        rng, 5, n_pvms, width, grouping, n_partitions, index,
        view=view, core=core,
    )
    assert data.plan.block_types() == types
    if core == "empty":
        assert not tables.active[keys.columns].any()
    if core == "empty" and not seed:
        # No active block: nothing to gather, and no row can gain.
        unreadable = tables._replace(tables=[None] * len(tables.tables))
        _check(data, unreadable, keys, zero, one, seed)
    else:
        _check(data, tables, keys, zero, one, seed)
