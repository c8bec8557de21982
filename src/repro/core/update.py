"""The distributed factor-matrix update (paper Algorithm 4).

One call updates one factor matrix column by column.  For every column c and
every row r, the error of setting ``target[r, c]`` to 0 and to 1 is computed
across all partitions: each partition fetches the cached Boolean row
summation keyed by ``target_row_mask AND outer_row_mask`` per block, XORs it
against its slice of the unfolded tensor, and popcounts.  The driver collects
each row's error change ``d = err1 - err0`` and sets the bit where ``d < 0``.

The two candidates differ only inside PVM blocks ``j`` with
``outer[j, c] = 1`` (the *active* blocks); every other block adds the same
error to both and cannot move a decision.  So columns evaluate their active
blocks alone and the driver carries the exact error forward by the per-row
change (see :func:`_choose_column`).  The error it starts from is the
caller's ``error_before`` — the previous update's ``error_after`` in a
solve — and only when the caller does not know it does the first evaluated
column scan every block to seed it.

Workers keep what the tasks derive from the broadcasts: one row-summation
cache (:func:`_shared_cache`) and the current column's target masks
(:func:`_target_masks`), each a :func:`~repro.distengine.broadcast.worker_state`
slot, so only the packed column deltas move per column.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, packing
from ..bitops.ops import xor_popcount_rows
from ..distengine import Distributed, SimulatedRuntime
from ..distengine.broadcast import worker_state
from ..observability.trace import kernel_span
from .cache import RowSummationCache
from .config import DbtfConfig
from .partition import PartitionData

__all__ = ["update_factor", "CachedPartition"]


class CachedPartition:
    """A partition plus the row-summation cache tables its blocks use.

    A transient wrapper built by each column task around its partition and
    the worker's shared cache (paper Algorithm 5: the tables are built
    once per worker and factor update, see :func:`_shared_cache`); the
    edge blocks' sliced tables are memoized in that cache, so wrapping
    costs microseconds.  Full-width blocks — the overwhelming majority
    (Lemma 3 allows at most two partial blocks per partition) — are
    evaluated as one batched table gather over all the selected ones at
    once, straight from the partition's slab, which is what keeps the
    cached kernel ahead of recomputation.
    """

    __slots__ = ("data", "cache", "edge_blocks")

    def __init__(self, data: PartitionData, cache: RowSummationCache):
        self.data = data
        self.cache = cache
        # (block, sliced tables, tensor words) for the <= 2 partial blocks:
        # only the first and the last block can be partial (Lemma 3).
        blocks = data.plan.blocks
        self.edge_blocks = [
            (block, cache.tables_for(block.start, block.stop),
             data.block_words(block))
            for block in blocks[:1] + blocks[1:][-1:]
            if not block.is_full
        ]

    @property
    def nbytes(self) -> int:
        """Resident bytes, each buffer once: the slab, the cache (which
        owns the edge blocks' sliced tables) and the edge blocks' words."""
        return (
            self.data.nbytes
            + self.cache.nbytes
            + sum(int(words.nbytes) for _, _, words in self.edge_blocks)
        )

    def column_errors(
        self,
        masks_if_zero: np.ndarray,
        outer_words: np.ndarray,
        outer_column: np.ndarray,
        inner_column_words: np.ndarray,
        *,
        all_blocks: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partition-local errors for both candidate values of one column.

        ``masks_if_zero`` are the packed row masks of the target factor with
        the current column forced to 0; ``outer_words``/``outer_column`` are
        the outer factor's packed row masks and its current column as a 0/1
        vector; ``inner_column_words`` is the inner factor's current column,
        packed over the PVM width.

        Returns per-row ``(error_if_zero, error_if_one)``.  By default they
        cover only the *active* blocks (``outer_column[pvm] = 1``): outside
        them both candidates reconstruct the same cells, so the errors there
        are equal, and ``error_if_one - error_if_zero`` — hence every row's
        decision — is exactly that of the full errors.  With
        ``all_blocks=True`` every block is evaluated and both are full
        per-row reconstruction errors.

        Only the candidate-0 reconstruction needs a cache gather: setting
        the entry to 1 Boolean-adds component c's coverage, which inside PVM
        block j is ``outer[j, c] * inner[:, c]`` — independent of the row —
        so ``rec1 = rec0 | column_coverage``.
        """
        with kernel_span(
            "cp.columnErrors",
            rows=masks_if_zero.shape[0],
            full_blocks=len(self.data.full_pvms),
            edge_blocks=len(self.edge_blocks),
        ):
            return self._column_errors(
                masks_if_zero, outer_words, outer_column, inner_column_words,
                all_blocks,
            )

    def _column_errors(
        self,
        masks_if_zero: np.ndarray,
        outer_words: np.ndarray,
        outer_column: np.ndarray,
        inner_column_words: np.ndarray,
        all_blocks: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        n_rows = masks_if_zero.shape[0]
        error_if_zero = np.zeros(n_rows, dtype=np.int64)
        error_if_one = np.zeros(n_rows, dtype=np.int64)
        full_pvms = self.data.full_pvms
        selected = (
            np.arange(len(full_pvms))
            if all_blocks
            else np.flatnonzero(outer_column[full_pvms.start : full_pvms.stop])
        )
        if selected.size:
            pvms = full_pvms.start + selected
            # Rows of (blocks x words), so one popcount sums a whole row.
            tensor_words = self.data.full_words[:, selected].reshape(n_rows, -1)
            # Batched over the selected full-width blocks: keys (rows, blocks).
            anded = masks_if_zero[:, None, :] & outer_words[pvms][None, :, :]
            keys = self.cache.group_keys(anded)
            rec_zero = self.cache.fetch(self.cache.full_tables, keys)
            # Component c's coverage in PVM block j is outer[j, c] *
            # inner[:, c]: nothing in an inactive block.
            addition = np.where(
                outer_column[pvms, None] != 0,
                inner_column_words[None, :],
                np.uint64(0),
            )
            error_if_zero += xor_popcount_rows(
                rec_zero.reshape(n_rows, -1), tensor_words
            )
            error_if_one += xor_popcount_rows(
                (rec_zero | addition).reshape(n_rows, -1), tensor_words
            )
        for block, tables, tensor_words in self.edge_blocks:
            active = bool(outer_column[block.pvm_index])
            if not (active or all_blocks):
                continue
            anded = masks_if_zero & outer_words[block.pvm_index]
            keys = self.cache.group_keys(anded)
            rec_zero = self.cache.fetch(tables, keys)
            addition = (
                packing.slice_bits(
                    inner_column_words[None, :], block.start, block.stop
                )[0]
                if active
                else np.uint64(0)
            )
            error_if_zero += xor_popcount_rows(rec_zero, tensor_words)
            error_if_one += xor_popcount_rows(rec_zero | addition, tensor_words)
        return error_if_zero, error_if_one


def _masks_with_bit_cleared(words: np.ndarray, column: int) -> np.ndarray:
    """Packed row masks with bit ``column`` forced to 0.

    One fused broadcast AND instead of copy-then-clear: the keep-mask is
    all-ones except the cleared bit's word, so every output word is written
    exactly once.
    """
    word_index, offset = divmod(column, packing.WORD_BITS)
    keep = np.full(words.shape[1], ~np.uint64(0), dtype=np.uint64)
    keep[word_index] = ~np.uint64(1 << offset)
    return words & keep


#: Worker-state slot of the shared row-summation cache (one per runtime).
_CACHE_SLOT = "rowSummationCache"

#: Worker-state slot of the current column task's target masks.
_MASKS_SLOT = "targetMasks"


def _shared_cache(factors, rank: int, group_size: int) -> RowSummationCache:
    """This worker's row-summation cache for one factors broadcast.

    Algorithm 5's tables depend only on the inner factor, so every
    partition on a worker shares one cache, built on the worker's first
    task of the update and replaced by the next update's (see
    :func:`~repro.distengine.broadcast.worker_state`).
    """

    def build(_previous) -> RowSummationCache:
        inner_words = factors.value[2]
        inner = BitMatrix(inner_words.shape[0], rank, inner_words)
        return RowSummationCache(inner, group_size)

    return worker_state(
        factors.scope, _CACHE_SLOT, (factors.content_id, rank, group_size),
        build,
    )


def _target_masks(factors, column: int, deltas: tuple) -> np.ndarray:
    """This worker's target masks for one column task (read-only).

    The base target words (``factors.value[0]``) with bit ``column``
    cleared and each earlier ``(applied_column, delta)`` set from its
    packed broadcast.  The slot key names the factors broadcast, the column
    and every applied delta, so the masks are a pure function of the task
    payload — bit-identical on every backend — and all partitions of a
    stage on one worker share one build.  When the slot holds the masks of
    this update's preceding evaluated column (same factors, the same deltas
    but the newest), only that newest delta is applied, to a copy;
    otherwise the masks are rebuilt from the base words.
    """
    applied = tuple((index, delta.content_id) for index, delta in deltas)
    key = (factors.content_id, column, applied)

    def build(previous) -> np.ndarray:
        base, replay = factors.value[0], deltas
        if deltas and previous is not None and previous[0] == (
            factors.content_id, deltas[-1][0], applied[:-1]
        ):
            base, replay = previous[1], deltas[-1:]
        # Deltas only cover earlier columns, so clearing this column first
        # (which also copies the base) commutes with applying them.
        masks = _masks_with_bit_cleared(base, column)
        for applied_column, delta in replay:
            chosen = np.unpackbits(delta.value, count=masks.shape[0])
            packing.set_bit_column(masks, applied_column, chosen)
        masks.setflags(write=False)
        return masks

    return worker_state(factors.scope, _MASKS_SLOT, key, build)


class _ColumnErrorsDeltaTask:
    """Stage payload: one column's error change per row, delta-only traffic.

    Ships a broadcast handle plus the packed ~n_rows/8-byte column updates
    already chosen this sweep, so per-column payloads are O(n_rows/8)
    instead of O(n_rows·words).  The worker keeps the derived state: the
    shared row-summation cache and the current target masks
    (:func:`_target_masks`), both pure functions of the payload, which is
    what makes results bit-identical across serial, thread, and process
    backends.

    Returns each row's ``error_if_one - error_if_zero`` over the active
    blocks.  A ``seed`` task — the first evaluated column of an update
    whose caller did not know the starting error — scans every block
    instead and also returns its rows' total ``error_if_zero``, from which
    the driver seeds the exact error.
    """

    __slots__ = ("factors", "column", "deltas", "rank", "group_size", "seed")

    def __init__(
        self,
        factors,
        column: int,
        deltas: tuple,
        rank: int,
        group_size: int,
        seed: bool = False,
    ):
        self.factors = factors
        self.column = column
        self.deltas = deltas
        self.rank = rank
        self.group_size = group_size
        self.seed = seed

    def __call__(self, data: PartitionData):
        outer_words = self.factors.value[1]
        cached = CachedPartition(
            data, _shared_cache(self.factors, self.rank, self.group_size)
        )
        error_if_zero, error_if_one = cached.column_errors(
            _target_masks(self.factors, self.column, self.deltas),
            outer_words,
            packing.bit_column(outer_words, self.column),
            cached.cache.columns_packed[self.column],
            all_blocks=self.seed,
        )
        change = error_if_one - error_if_zero
        if self.seed:
            return change, int(error_if_zero.sum())
        return change


def _choose_column(
    change: np.ndarray, current: np.ndarray, error: int
) -> tuple[np.ndarray, int]:
    """One column's per-row choice and the reconstruction error after it.

    ``change`` is each row's ``error_if_one - error_if_zero`` and ``error``
    the exact error of the factors before this column.  Outside the active
    blocks both candidates reconstruct the same cells, so a row's error
    moves from its current value's by ``min(0, d) - current * d``.
    """
    # Strict inequality: ties keep 0, favouring sparser factors (the paper
    # does not specify a tie rule; see DESIGN.md).
    chosen = (change < 0).astype(np.uint8)
    moved = int(np.minimum(change, 0).sum()) - int(change[current != 0].sum())
    return chosen, error + moved


def update_factor(
    data_rdd: Distributed,
    target: BitMatrix,
    outer: BitMatrix,
    inner: BitMatrix,
    config: DbtfConfig,
    runtime: SimulatedRuntime,
    *,
    dirty_columns: "set[int] | None" = None,
    error_before: "int | None" = None,
):
    """Update ``target`` to minimize ``|X_(n) ⊕ target ∘ (outer ⊙ inner)ᵀ|``.

    ``error_before`` is the exact reconstruction error of the input
    factors, when the caller knows it (a solve's previous update returned
    it).  Every evaluated column then scans only the blocks where its outer
    column is set and the error is carried forward from it
    (:func:`_choose_column`).  With ``None`` the first evaluated column
    scans every PVM block to seed it.

    With ``dirty_columns=None`` (the default and the only path the batch
    solver uses) every column is swept and the return value is
    ``(updated, error_after)`` — the reconstruction error after the last
    column update, which equals the full tensor error for the new factors.

    With a ``dirty_columns`` set (the incremental path,
    :mod:`repro.incremental`), only columns in the set are re-swept —
    clean columns keep their bits and skip their ``2`` error evaluations
    entirely — *until* an evaluated column changes, after which every later
    column of this update is evaluated too ("escalate on change"): a
    changed column alters ``rec0`` for its successors, so their cached
    decisions are no longer trustworthy.  The return value becomes
    ``(updated, error_after, changed_columns)``; skipped columns keep their
    bits and so leave the error unchanged, and it is ``error_before`` when
    no column was evaluated (``None`` if that is unknown too).
    """
    if target.n_cols != config.rank:
        raise ValueError(
            f"target has {target.n_cols} columns but config.rank is {config.rank}"
        )
    if dirty_columns is not None:
        dirty = {int(column) for column in dirty_columns}
        if any(not 0 <= column < config.rank for column in dirty):
            raise ValueError(
                f"dirty_columns {sorted(dirty)} out of range for rank "
                f"{config.rank}"
            )
        if not dirty:
            runtime.metrics.counter("incremental_columns_skipped_total").inc(
                config.rank
            )
            return target.copy(), error_before, set()
    else:
        dirty = None
    # Ship the factor matrices to the workers (paper Sec. III-E: factor
    # matrices are broadcast each iteration); the column tasks reference
    # this broadcast by id instead of embedding the arrays.
    factors = runtime.broadcast(
        [target.words, outer.words, inner.words], name="updateFactor.broadcast"
    )
    # Algorithm 5: the row-summation cache depends only on `inner`, so each
    # worker builds it once from this broadcast, on its first column task,
    # and every partition it holds shares it (`_shared_cache`).  The column
    # stages map straight over the persisted partitions; nothing derived
    # from the factors is persisted or spilled.
    updated = target.copy()
    error = error_before
    deltas: list[tuple] = []
    changed: set[int] = set()
    escalated = False
    evaluated = skipped = 0
    for column in range(config.rank):
        if dirty is not None and not (escalated or column in dirty):
            # Clean column under an intact prefix: the delta cannot have
            # moved this column's decision (its support misses every touched
            # fiber) and no earlier column changed rec0 — keep its bits and
            # skip both error evaluations.
            skipped += 1
            continue
        seed = error is None
        task = _ColumnErrorsDeltaTask(
            factors, column, tuple(deltas), config.rank,
            config.cache_group_size, seed,
        )
        per_partition = data_rdd.map(task, name="columnErrors").collect(
            name="collectColumnErrors"
        )
        if seed:
            per_partition, zero_errors = zip(*per_partition)
        change = np.zeros(updated.n_rows, dtype=np.int64)
        for partial in per_partition:
            change += partial
        current = updated.column(column)
        if seed:
            # The seeding column's errors span every block, so the factors'
            # exact error is every row's error at its current bit.
            error = sum(zero_errors) + int(change[current != 0].sum())
        chosen, error = _choose_column(change, current, error)
        if dirty is not None:
            evaluated += 1
            if not np.array_equal(chosen, current):
                changed.add(column)
                escalated = True
        updated.set_column(column, chosen)
        # The workers need the freshly updated column for the next
        # column-iteration; later column tasks reference these packed
        # deltas to derive the target masks worker-side.
        delta = runtime.broadcast(np.packbits(chosen), name="columnUpdate")
        deltas.append((column, delta))
    if dirty is None:
        return updated, error
    runtime.metrics.counter("incremental_columns_swept_total").inc(evaluated)
    runtime.metrics.counter("incremental_columns_skipped_total").inc(skipped)
    return updated, error, changed
