"""Delta-aware maintenance of partitioned unfoldings and dirty-column scoping.

This module is the tensor/engine half of the incremental factorization
stack (:mod:`repro.incremental` holds the epoch loop).  Three pieces:

* :func:`prepare_mode_partitions` — builds one mode's partitioned, packed
  unfolding.  The default path is byte-for-byte the classic Algorithm 3
  pipeline (coordinate shuffle → executor-local packing); under a memory
  budget the packed unfolding is flushed through the runtime's
  :class:`~repro.storage.MmapUnfoldingStore` and partitions become
  zero-copy views over the file, so the driver never holds three dense
  unfoldings resident.
* :class:`PartitionedUnfoldings` — owns the three mode RDDs across epochs
  and patches cached partitions in place from a
  :class:`~repro.tensor.TensorDelta` (shipping only the changed cells,
  O(|Δ|) shuffle bytes) instead of rebuilding them (O(|X|)).
* :func:`dirty_columns_for_delta` / :func:`baseline_error_after_delta` —
  the warm-start bookkeeping: which factor columns a delta can possibly
  move, and the exact reconstruction error of the *old* factors on the
  *new* tensor, both in O(|Δ| · R) driver work.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, packing
from ..distengine import Distributed, SimulatedRuntime, TransferKind
from ..tensor import MODE_FACTOR_ROLES, SparseBoolTensor, TensorDelta, unfold
from ..tensor.matricize import _mode_axes
from ..tensor.packed import PackedUnfolding
from .partition import (
    _COORDINATE_BYTES,
    PartitionData,
    PartitionPlan,
    build_partition_data,
    make_partition_plans,
    pack_partition,
    split_unfolding_coordinates,
)

__all__ = [
    "prepare_mode_partitions",
    "PartitionedUnfoldings",
    "dirty_columns_for_delta",
    "baseline_error_after_delta",
]

def prepare_mode_partitions(
    tensor: SparseBoolTensor,
    mode: int,
    n_partitions: int,
    runtime: SimulatedRuntime,
) -> "tuple[Distributed, list[PartitionPlan]]":
    """One mode's partitioned packed unfolding plus its partition plans.

    This is paper Algorithm 3 for one mode.  The default path shuffles the
    sparse unfolded coordinates (Lemma 6: O(|X|) bytes) and packs each
    partition executor-locally as a lazy, persisted stage — identical
    stages, transfers, and bits to the historical
    ``prepare_partitioned_unfoldings`` loop.

    When the runtime carries a memory budget, the packed unfolding is
    instead flushed to the runtime's memmap store and the partitions are
    built as zero-copy views over the file: same packed bits, same
    O(|X|) shuffle charge (the coordinates would cross the network either
    way), but the driver's resident footprint for cold modes is file-backed
    pages the OS may drop, and the storage tier budgets the rest.
    """
    unfolding = unfold(tensor, mode)
    plans = make_partition_plans(
        unfolding.block_count, unfolding.block_width, n_partitions
    )
    store = runtime.unfolding_storage()
    if store is None:
        coordinate_splits = split_unfolding_coordinates(unfolding, plans)
        runtime.record_transfer(
            TransferKind.SHUFFLE,
            f"partitionUnfolding[{mode}]",
            sum(split.nbytes for split in coordinate_splits),
        )
        rdd = (
            runtime.from_partitions(
                [[split] for split in coordinate_splits], name=f"pX({mode + 1})"
            )
            .map(pack_partition, name=f"partitionAndPack[{mode}]")
            .persist()
        )
        return rdd, plans
    # Budgeted path: pack once driver-side, flush to the mmap file, then
    # hand out partitions whose slabs are views into the map.
    # The shuffle charge matches the coordinate path exactly — the same
    # nonzeros cross the simulated network no matter how the driver stores
    # its copy.
    shuffle_bytes = _COORDINATE_BYTES * unfolding.nnz
    flushed = store.flush(PackedUnfolding(unfolding))
    runtime.record_transfer(
        TransferKind.SHUFFLE, f"partitionUnfolding[{mode}]", shuffle_bytes
    )
    data = build_partition_data(flushed, plans)
    rdd = runtime.from_partitions(
        [[partition] for partition in data], name=f"pX({mode + 1})"
    )
    return rdd, plans


class _PatchPartitionsTask:
    """Stage payload: apply one delta's cell flips to one partition.

    A pure function of ``(payloads, partition)`` keyed by the partition
    plan's index, so results are bit-identical across the serial, thread,
    and process backends.  Copy-on-write per partition: a partition no
    delta cell touches keeps its slab (which may be a read-only memmap view
    on the budgeted path); a touched one gets a patched copy.
    """

    __slots__ = ("payloads",)

    def __init__(self, payloads: dict):
        self.payloads = payloads

    def __call__(self, data: PartitionData) -> PartitionData:
        payload = self.payloads.get(data.plan.index)
        if payload is None:
            return data
        words = np.array(data.words, order="C", copy=True)
        # The payload is (added bits, removed bits): set, then clear.
        for bits, value in zip(payload, (True, False)):
            packing.scatter_bits(words, bits, value)
        return PartitionData(plan=data.plan, words=words)


class PartitionedUnfoldings:
    """The three cached mode RDDs of one tensor, advanced delta by delta.

    Owns the unfolding lifecycle across epochs: :meth:`prepare` builds the
    partitions once, :meth:`patch` derives each next epoch's partitions
    from the cached previous ones (materializing the patched caches, then
    releasing the stale generation), and :meth:`unpersist` releases
    everything.  The epoch loop in :mod:`repro.incremental` holds exactly
    one of these per session.
    """

    def __init__(
        self,
        runtime: SimulatedRuntime,
        shape: tuple[int, int, int],
        rdds: "list[Distributed]",
        plans: "list[list[PartitionPlan]]",
    ):
        self.runtime = runtime
        self.shape = shape
        self._rdds = rdds
        self._plans = plans
        self.epoch = 0

    @classmethod
    def prepare(
        cls,
        tensor: SparseBoolTensor,
        n_partitions: int,
        runtime: SimulatedRuntime,
    ) -> "PartitionedUnfoldings":
        """Partition and cache all three unfoldings of ``tensor``."""
        if tensor.ndim != 3:
            raise ValueError(
                f"partitioned unfoldings need a three-way tensor, got "
                f"{tensor.ndim}-way"
            )
        rdds, plans = [], []
        for mode in range(3):
            rdd, mode_plans = prepare_mode_partitions(
                tensor, mode, n_partitions, runtime
            )
            rdds.append(rdd)
            plans.append(mode_plans)
        return cls(runtime, tensor.shape, rdds, plans)

    @property
    def rdds(self) -> "list[Distributed]":
        """The current generation's mode RDDs (shared with the solver)."""
        return list(self._rdds)

    def _mode_payloads(self, changes: "list[SparseBoolTensor]", mode: int) -> dict:
        """Per-partition (added, removed) slab-bit payloads for one mode."""
        added, removed = (
            split_unfolding_coordinates(unfold(cells, mode), self._plans[mode])
            for cells in changes
        )
        return {
            adds.plan.index: (adds.bits, removes.bits)
            for adds, removes in zip(added, removed)
            if adds.nnz or removes.nnz
        }

    def patch(self, delta: TensorDelta) -> None:
        """Advance every cached partition to the delta'd tensor in place.

        Ships only the changed cells (an O(|Δ|) shuffle, vs the O(|X|)
        rebuild), derives a patched generation of each mode RDD from the
        cached previous generation, materializes it, and releases the stale
        caches.  A superseded *derived* generation is unpersisted (its
        cache and any spill file are dropped); a *source* base generation
        (the budgeted mmap path) is left alone — sources have no lineage to
        recompute from, so evicting one would destroy data, and the storage
        tier already pages cold sources out under the budget.
        """
        if tuple(delta.shape) != tuple(self.shape):
            raise ValueError(
                f"delta shape {tuple(delta.shape)} does not match tensor "
                f"shape {tuple(self.shape)}"
            )
        self.epoch += 1
        if delta.is_empty:
            return
        changes = [
            SparseBoolTensor.from_flat(self.shape, cells)
            for cells in (delta.added, delta.removed)
        ]
        for mode in range(3):
            payloads = self._mode_payloads(changes, mode)
            payload_bytes = _COORDINATE_BYTES * sum(
                bits.shape[0] for payload in payloads.values() for bits in payload
            )
            self.runtime.record_transfer(
                TransferKind.SHUFFLE, f"patchUnfolding[{mode}]", payload_bytes
            )
            patched = self._rdds[mode].map(
                _PatchPartitionsTask(payloads), name=f"patchPartitions[{mode}]"
            ).persist()
            # Materialize the new generation while the old caches are still
            # available (the patch tasks read them), then release the stale
            # generation — except source bases, whose cache IS the data.
            patched.count(name=f"patchUnfolding[{mode}]")
            if not self._rdds[mode].node.is_source:
                self._rdds[mode].unpersist()
            self._rdds[mode] = patched
        self.runtime.metrics.counter("incremental_patches_total").inc()

    def unpersist(self) -> None:
        """Release every cached generation (session teardown)."""
        for rdd in self._rdds:
            rdd.unpersist()


def _dense_factor(factor: BitMatrix) -> np.ndarray:
    """The factor as a dense (n_rows, rank) 0/1 array."""
    return packing.unpack_bits(factor.words, factor.n_cols).reshape(
        factor.n_rows, factor.n_cols
    )


def dirty_columns_for_delta(
    delta: TensorDelta,
    factors: "tuple[BitMatrix, BitMatrix, BitMatrix]",
) -> "list[set[int]]":
    """Per-mode sets of factor columns whose decisions the delta can move.

    Component ``r``'s error contribution for mode ``n``'s update differs
    between the set-to-0 and set-to-1 candidates only on cells inside the
    component's Khatri-Rao support rectangle ``outer[:, r] × inner[:, r]``
    (see :func:`~repro.core.update.column_errors`: ``rec1 = rec0 | coverage`` and
    the coverage of component r in block b is ``outer[b, r] & inner[:, r]``).
    A delta cell outside that rectangle shifts both candidate errors by the
    same ±1, so the argmin — the column's decision — cannot move.  Columns
    whose rectangles miss every changed cell are therefore *clean* for a
    warm start at these factors, and ``update_factor`` may skip them.
    """
    coords = np.concatenate(
        [delta.added_coords(), delta.removed_coords()], axis=0
    )
    dense = [_dense_factor(factor) for factor in factors]
    dirty: list[set[int]] = []
    for mode in range(3):
        _, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
        _, block_axis, offset_axis = _mode_axes(mode)
        if coords.shape[0] == 0:
            dirty.append(set())
            continue
        active = (
            dense[outer_index][coords[:, block_axis]]
            & dense[inner_index][coords[:, offset_axis]]
        ).any(axis=0)
        dirty.append({int(column) for column in np.flatnonzero(active)})
    return dirty


def baseline_error_after_delta(
    error: int,
    delta: TensorDelta,
    factors: "tuple[BitMatrix, BitMatrix, BitMatrix]",
) -> int:
    """|X' ⊕ X̃| for the old factors on the delta'd tensor, in O(|Δ|·R).

    Only the flipped cells change the Hamming error, and each flip's
    contribution depends solely on whether the current reconstruction
    covers that cell: an added cell costs 1 when uncovered and *repays* 1
    when covered (it was an error before), symmetrically for removals.
    """
    dense = [_dense_factor(factor) for factor in factors]

    def covered(coords: np.ndarray) -> int:
        if coords.shape[0] == 0:
            return 0
        cells = (
            dense[0][coords[:, 0]]
            & dense[1][coords[:, 1]]
            & dense[2][coords[:, 2]]
        ).any(axis=1)
        return int(cells.sum())

    adds_covered = covered(delta.added_coords())
    removes_covered = covered(delta.removed_coords())
    return int(
        error
        + (delta.n_added - 2 * adds_covered)
        + (2 * removes_covered - delta.n_removed)
    )
