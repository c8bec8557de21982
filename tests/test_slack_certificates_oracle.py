"""Slack certificates against a brute-force recount.

A pair's decision flips with the sign of ``d = err1 - err0`` over its
support rectangle, and one changed tensor cell there moves ``d`` by at
most 2.  :class:`~repro.core.DecisionCertificates` therefore issue each
pair ``-d - 1`` of slack when its bit is 1 and ``d`` when it is 0 (ties keep
0), :meth:`~repro.core.PartitionedUnfoldings.patch` charges 2 per changed
cell inside the rectangle, and a pair stays certified while its slack is
not negative.  Here a mode's update issues certificates on a small planted
tensor from random starting factors (so rows flip), a delta of 1-40 cells
is patched in, a second update carries what survived, and a second delta
is patched in.  After each patch every pair still certified must hold the
bit that a brute-force recount of its ``d`` on the new tensor picks, and
the second update must equal the brute-force sweep of
``tests/sweep_oracle.py``.

The deltas toggle cells inside one certified pair's rectangle, adds and
removes alike, plus cells anywhere.  A fixed-seed run checks that the
cases cover pairs issued at ``d = 0`` and ``d = ±1``, a rectangle that
gains and loses cells in one delta, and rows that flip.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, PartitionedUnfoldings, update_factor
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.metrics import reconstruction_error
from repro.tensor import (
    MODE_FACTOR_ROLES,
    SparseBoolTensor,
    TensorDelta,
    planted_tensor,
)
from repro.tensor.matricize import _mode_axes

from .sweep_oracle import basis, sweep, unfolded

RANK = 3


def _changes(x: np.ndarray, target: np.ndarray, cells: np.ndarray):
    """``(rows, rank)``: each pair's ``d = err1 - err0``, recounted over
    its whole row at the row's other bits."""
    change = np.zeros(target.shape, dtype=np.int64)
    for column in range(target.shape[1]):
        others = target.astype(np.int64)
        others[:, column] = 0
        rec0 = (others @ cells.astype(np.int64)) > 0
        rec1 = rec0 | cells[column]
        change[:, column] = (rec1 ^ x).sum(axis=1) - (rec0 ^ x).sum(axis=1)
    return change


def _check(certificates, tensor, target, outer, inner, mode) -> None:
    """Every pair still certified holds the bit its recount picks."""
    held = certificates.valid(target, outer, inner) >= 0
    bits = target.to_dense().astype(bool)
    change = _changes(
        unfolded(tensor.to_dense(), mode), bits,
        basis(outer.to_dense(), inner.to_dense()),
    )
    wrong = held & ((change < 0) != bits)
    assert not wrong.any(), f"certified pairs {np.argwhere(wrong).tolist()}"


def _delta(rng, tensor, mode, row, outer, inner, column, n_inside, n_outside):
    """Toggle ``n_inside`` cells of pair ``(row, column)``'s rectangle and
    ``n_outside`` cells anywhere."""
    blocks, offsets = np.nonzero(
        outer.to_dense()[:, None, column] & inner.to_dense()[None, :, column]
    )
    inside = rng.permutation(blocks.size)[:n_inside]
    cells = np.zeros((inside.size + n_outside, 3), dtype=np.int64)
    row_axis, block_axis, offset_axis = _mode_axes(mode)
    cells[: inside.size, row_axis] = row
    cells[: inside.size, block_axis] = blocks[inside]
    cells[: inside.size, offset_axis] = offsets[inside]
    for axis, size in enumerate(tensor.shape):
        cells[inside.size :, axis] = rng.integers(size, size=n_outside)
    flat = np.unique(np.ravel_multi_index(cells.T, tensor.shape))
    present = np.isin(flat, tensor.flat)
    delta = TensorDelta(tensor.shape, flat[~present], flat[present])
    mixed = inside.size and 0 < present[: inside.size].sum() < inside.size
    return delta, bool(mixed)


def _run(seed: int, mode: int, n_inside: int, n_outside: int) -> set:
    """One case; returns the kinds of pair and delta it covered."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(5, 9, size=3))
    tensor, _ = planted_tensor(
        shape, rank=RANK, factor_density=0.4, rng=rng, additive_noise=0.1,
        destructive_noise=0.1,
    )
    tensor = SparseBoolTensor(shape, tensor.coords)
    factors = [BitMatrix.random(n, RANK, 0.4, rng) for n in shape]
    target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
    outer, inner = factors[outer_index], factors[inner_index]
    config = DbtfConfig(rank=RANK, cache_group_size=2)
    covered = set()
    cluster = ClusterConfig(n_machines=2, cores_per_machine=1)
    with SimulatedRuntime(cluster) as runtime:
        live = PartitionedUnfoldings.prepare(tensor, 2, runtime)
        certificates = live.certificates[mode]
        target = factors[target_index]
        for step in range(2):
            current = list(factors)
            current[target_index] = target
            updated, _ = update_factor(
                live.rdds[mode], target, outer, inner, config, runtime,
                error_before=reconstruction_error(tensor, tuple(current)),
                certificates=certificates,
            )
            if step:
                want, _, _, _ = sweep(
                    unfolded(tensor.to_dense(), mode), target.to_dense(),
                    basis(outer.to_dense(), inner.to_dense()), by_row=False,
                )
                np.testing.assert_array_equal(updated.to_dense(), want)
            if (updated.words != target.words).any():
                covered.add("row flip")
            target = updated
            issued = certificates.valid(target, outer, inner)
            change = _changes(
                unfolded(tensor.to_dense(), mode),
                target.to_dense().astype(bool),
                basis(outer.to_dense(), inner.to_dense()),
            )
            for d in (-1, 0, 1):
                if ((issued >= 0) & (change == d)).any():
                    covered.add(f"d = {d}")
            # The pair whose rectangle the delta hits: a certified one
            # with the least slack.
            rows, columns = np.nonzero(issued >= 0)
            if rows.size:
                pick = np.argmin(issued[rows, columns])
                row, column = int(rows[pick]), int(columns[pick])
            else:
                row, column = 0, 0
            delta, mixed = _delta(
                rng, tensor, mode, row, outer, inner, column, n_inside,
                n_outside,
            )
            if mixed:
                covered.add("add and remove in one rectangle")
            tensor = tensor.apply_delta(delta)
            live.patch(delta)
            _check(certificates, tensor, target, outer, inner, mode)
        live.unpersist()
    return covered


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.integers(0, 2),
    n_inside=st.integers(1, 20),
    n_outside=st.integers(0, 20),
)
def test_certified_pairs_keep_the_recounted_decision(
    seed, mode, n_inside, n_outside
):
    _run(seed, mode, n_inside, n_outside)


def test_cases_cover_ties_flips_and_mixed_rectangles():
    covered = set()
    for seed in range(12):
        covered |= _run(seed, seed % 3, 1 + seed % 5, seed % 4)
    assert covered == {
        "row flip", "d = -1", "d = 0", "d = 1",
        "add and remove in one rectangle",
    }
