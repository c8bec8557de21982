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
  and writes each :class:`~repro.tensor.TensorDelta` into the cached
  slabs in place (shipping only the changed cells, O(|Δ|) bytes) instead
  of rebuilding them (O(|X|)); it also keeps each mode's decision
  certificates (:class:`~repro.core.update.DecisionCertificates`).
* :func:`dirty_columns_for_delta` / :func:`baseline_error_after_delta` —
  the warm-start bookkeeping: which factor columns a delta can possibly
  move, and the exact reconstruction error of the *old* factors on the
  *new* tensor, both in O(|Δ| · R) driver work.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, packing
from ..distengine import Distributed, SimulatedRuntime, TransferKind
from ..distengine.shuffle import HANDLE_WIRE_BYTES
from ..tensor import MODE_FACTOR_ROLES, SparseBoolTensor, TensorDelta, unfold
from ..tensor.matricize import Unfolding, _mode_axes
from ..tensor.packed import PackedUnfolding
from ..tensor.sparse import coords_from_flat
from .partition import (
    _COORDINATE_BYTES,
    PartitionData,
    PartitionPlan,
    build_partition_data,
    locate_cells,
    make_partition_plans,
    pack_partition,
    split_unfolding_coordinates,
)
from .update import DecisionCertificates

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


def _patch_words(
    target: np.ndarray, bits: np.ndarray, added: np.ndarray, n_targets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One delta's patch as ``(words, masks, bounds)``, in one pass.

    The changed cells' bits are merged per slab word: the slab of patch
    target ``t`` sets ``masks[k]`` in flat slab word ``words[k]`` for ``k``
    in ``bounds[2t]:bounds[2t + 1]`` and clears them up to
    ``bounds[2t + 2]``.  Each word appears once per target and kind, so
    plain fancy-indexed updates write it exactly once.
    """
    word, offset = np.divmod(bits.astype(np.int64), packing.WORD_BITS)
    span = int(word.max()) + 1
    groups, inverse = np.unique(
        (target * 2 + ~added) * span + word, return_inverse=True
    )
    masks = np.zeros(groups.size, dtype=np.uint64)
    np.bitwise_or.at(
        masks, inverse, np.left_shift(np.uint64(1), offset.astype(np.uint64))
    )
    bounds = np.searchsorted(groups, np.arange(2 * n_targets + 1) * span)
    return groups % span, masks, bounds


class _PatchPartitionsTask:
    """Stage payload: write one delta's cells into the slabs it touches.

    ``cells`` is the delta's broadcast (:func:`_patch_words`), whose patch
    targets are the stage's tasks in order.  The slab is written in place;
    only a read-only slab — a view of the budgeted path's flushed
    unfolding — is copied first, once, and the copy replaces it.  Setting
    and clearing bits (never toggling them) makes a retried task write the
    same bits.
    """

    __slots__ = ("cells",)

    def __init__(self, cells):
        self.cells = cells

    @property
    def nbytes(self) -> int:
        """The payload's ledger size in O(1), as
        :func:`~repro.distengine.shuffle.estimate_bytes`' walk over the
        slots gives it: the handle and the object."""
        return HANDLE_WIRE_BYTES + 8

    def __call__(self, target: int, items: list) -> list:
        words, masks, bounds = self.cells.value
        lo, mid, hi = bounds[2 * target : 2 * target + 3]
        for position, data in enumerate(items):
            slab = data.words
            if not (slab.flags.writeable and slab.flags.c_contiguous):
                slab = np.array(slab, order="C")
                items[position] = data = PartitionData(data.plan, slab)
            flat = slab.reshape(-1)
            flat[words[lo:mid]] |= masks[lo:mid]
            flat[words[mid:hi]] &= ~masks[mid:hi]
        return items


class PartitionedUnfoldings:
    """The three cached mode RDDs of one tensor, advanced delta by delta.

    Owns the unfolding lifecycle across epochs: :meth:`prepare` builds the
    partitions once, :meth:`patch` writes each delta into the cached slabs
    in place, and :meth:`unpersist` releases everything.  It also keeps
    each mode's :class:`~repro.core.update.DecisionCertificates`, which
    :meth:`patch` charges for the changed cells that can move a decision.  The
    epoch loop in :mod:`repro.incremental` holds exactly one of these per
    session.
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
        #: Per mode, the decisions its updates certified on these slabs.
        self.certificates = [DecisionCertificates() for _ in range(3)]

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
        """The mode RDDs (shared with the solver)."""
        return list(self._rdds)

    def patch(self, delta: TensorDelta) -> None:
        """Write ``delta`` into every cached slab it touches, in place.

        The changed cells of all three modes are merged into per-slab words
        in one pass (:func:`_patch_words`), and the delta ships as one
        broadcast (priced per mode as Lemma 6's O(|Δ|) shuffle, vs the
        O(|X|) rebuild); one stage then sets the added cells' bits and
        clears the removed ones in each touched partition of every mode, on
        the worker that holds it (:meth:`~repro.distengine.SimulatedRuntime.
        update_cached`).  Untouched partitions are not dispatched, and the
        RDDs stay the same: no new generation is cached.  Each mode's
        certificates are charged for the cells that can move their
        decisions.
        """
        if tuple(delta.shape) != tuple(self.shape):
            raise ValueError(
                f"delta shape {tuple(delta.shape)} does not match tensor "
                f"shape {tuple(self.shape)}"
            )
        self.epoch += 1
        if delta.is_empty:
            return
        coords = coords_from_flat(
            np.concatenate([delta.added, delta.removed]), self.shape
        )
        added = np.arange(delta.n_changes) < delta.n_added
        cells = []
        for mode in range(3):
            axes = list(_mode_axes(mode))  # row, block, offset
            cells.append(Unfolding(
                mode, *(self.shape[axis] for axis in axes), *coords[:, axes].T
            ))
        # A patch target is one (mode, partition), numbered over the modes.
        first = np.cumsum([0] + [len(plans) for plans in self._plans])
        located = [
            locate_cells(mode_cells, len(plans))
            for mode_cells, plans in zip(cells, self._plans)
        ]
        touched, target = np.unique(
            np.concatenate([
                first[mode] + part for mode, (part, _) in enumerate(located)
            ]),
            return_inverse=True,
        )
        bits = np.concatenate([bits.astype(np.int64) for _, bits in located])
        handle = self.runtime.broadcast(
            _patch_words(target, bits, np.tile(added, 3), touched.size),
            name="patchCells",
        )
        for mode, mode_cells in enumerate(cells):
            # Before any slab changes, so a failed stage leaves every
            # certificate charged for data it may have written.
            self.certificates[mode].charge_cells(
                mode_cells.rows, mode_cells.block_ids, mode_cells.offsets
            )
            self.runtime.record_transfer(
                TransferKind.SHUFFLE, f"patchUnfolding[{mode}]",
                _COORDINATE_BYTES * delta.n_changes,
            )
        mode = np.searchsorted(first, touched, side="right") - 1
        part = touched - first[mode]
        self.runtime.update_cached(
            [
                (self._rdds[m].node, p)
                for m, p in zip(mode.tolist(), part.tolist())
            ],
            _PatchPartitionsTask(handle),
            "patchPartitions",
        )
        self.runtime.release_broadcast(handle)
        self.runtime.metrics.counter("incremental_patches_total").inc()

    def unpersist(self) -> None:
        """Release the cached unfoldings (session teardown)."""
        for rdd in self._rdds:
            rdd.unpersist()


def _dense_factors(factors) -> "list[np.ndarray]":
    """The factors as dense ``(n_rows, rank)`` 0/1 arrays; dense ones pass
    through, so a caller that needs them twice unpacks them once."""
    return [
        factor if isinstance(factor, np.ndarray) else factor.to_dense()
        for factor in factors
    ]


def dirty_columns_for_delta(
    delta: TensorDelta,
    factors: "tuple[BitMatrix | np.ndarray, ...]",
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

    ``factors`` are :class:`~repro.bitops.BitMatrix` or their
    ``to_dense()`` arrays.
    """
    coords = np.concatenate(
        [delta.added_coords(), delta.removed_coords()], axis=0
    )
    dense = _dense_factors(factors)
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
    factors: "tuple[BitMatrix | np.ndarray, ...]",
) -> int:
    """|X' ⊕ X̃| for the old factors on the delta'd tensor, in O(|Δ|·R).

    Only the flipped cells change the Hamming error, and each flip's
    contribution depends solely on whether the current reconstruction
    covers that cell: an added cell costs 1 when uncovered and *repays* 1
    when covered (it was an error before), symmetrically for removals.
    ``factors`` are as for :func:`dirty_columns_for_delta`.
    """
    dense = _dense_factors(factors)

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
