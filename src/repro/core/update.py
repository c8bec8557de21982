"""The distributed factor-matrix update (paper Algorithm 4).

One call updates one factor matrix column by column.  For every column c and
every row r, the errors of setting ``target[r, c]`` to 0 and to 1 are
compared across all partitions: each partition fetches the cached Boolean
row summation ``rec0`` keyed by ``target_row_mask AND outer_row_mask`` per
block and counts, against its slice of the unfolded tensor ``X``, each
row's error change ``d = err1 - err0``.  Candidate 1 adds component c's
coverage, ``rec1 = rec0 | cover``, so ``d = popcount(cover & ~rec0) -
2 * popcount(cover & ~rec0 & X)``.  The driver sums ``d`` over the
partitions and sets the bit where ``d < 0``.

The two candidates differ only inside the PVM blocks that component c
covers (the *active* blocks: for CP, those with ``outer[j, c] = 1``);
every other block adds the same error to both and cannot move a decision.
So columns evaluate their active blocks alone and the driver carries the
exact error forward by the per-row change (see :func:`_choose_column`).  The error it starts from is the
caller's ``error_before`` — the previous update's ``error_after`` in a
solve — and only when the caller does not know it does the first evaluated
column scan every block to seed it.

:func:`column_errors` evaluates all of a partition's selected blocks,
partial edge blocks included, in a fixed number of numpy passes: one
gather per cache group from word-major tables into a rows-last array, a
window mask over the edge PVMs' full-width words, and two popcounts.

Boolean Tucker (:func:`~repro.tucker.dbtf_tucker`) runs the same
update, task and kernel.  With a core ``G``, block ``k``'s coverage is the
effective basis ``S_u ∘ innerᵀ`` of its outer row ``u = outer[k]``, where
``S_u[t, i] = OR_o g_tio AND u_o``; CP is the superdiagonal core, where
``S_u = diag(u)``.  Only the worker-side :class:`KernelTables` build
differs: CP shares one table per cache group keyed by ``row & outer``
(:func:`kernel_tables`), Tucker stacks one table per distinct outer-row
pattern and encodes the pattern into the keys
(:func:`tucker_kernel_tables`).

Workers keep what the tasks derive from the broadcasts, each in a
:func:`~repro.distengine.broadcast.worker_state` slot: per factors
broadcast, the kernel's :class:`KernelTables`; per column, the target
masks (:func:`_target_masks`) and the kernel's :class:`ColumnKeys` next to
them.  Only the packed column deltas move per column.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ..bitops import BitMatrix, or_accumulate_table, packing
from ..distengine import Distributed, SimulatedRuntime
from ..distengine.broadcast import worker_state
from ..distengine.shuffle import HANDLE_WIRE_BYTES
from ..observability.trace import kernel_span, metrics_enabled, record_metric
from .cache import RowSummationCache, group_keys, split_groups
from .config import DbtfConfig
from .partition import Block, PartitionData

__all__ = [
    "update_factor",
    "column_errors",
    "kernel_tables",
    "tucker_kernel_tables",
    "column_keys",
    "KernelTables",
    "ColumnKeys",
]


class KernelTables(NamedTuple):
    """What the column kernel reads of one factors broadcast.

    Each worker builds it once per broadcast (:func:`_kernel_tables`) and
    every partition it holds shares it.
    """

    #: The cache groups, ``(start, size)`` over the target's columns; they
    #: split every key (Algorithm 5).
    groups: tuple
    #: Per cache group, the group's tables word-major, ``(n_words,
    #: n_entries)``, so one gather yields rows-last summations.
    tables: list
    #: Per cache group, every PVM block's key bits, ``(n_pvms,)``.  A
    #: block's key is ``row_key & outer_key``, and target row keys carry
    #: every bit above the group's ``size`` (:func:`column_keys`), so the
    #: high bits of an outer key select the block's table.
    outer_keys: list
    #: ``(rank, n_words, n_pvms)``: component c's coverage inside every PVM
    #: block, zero where it covers nothing.
    coverage: np.ndarray


class ColumnKeys(NamedTuple):
    """What the column kernel reads of one column task.

    Each worker builds it once per column (:func:`_column_keys`), next to
    the target masks it derives from.
    """

    #: Per cache group, every target row's key bits with the column
    #: cleared, ``(n_rows,)``, with every bit above the group set.  Bit
    #: extraction commutes with AND, so PVM block ``j``'s key is
    #: ``row_keys[g] & outer_keys[g][j]``.
    row_keys: list
    #: The blocks the column covers, one bool per PVM block: only there
    #: do the two candidates differ.
    active: np.ndarray
    #: ``(n_words, n_pvms)``: the column's coverage inside every block.
    coverage: np.ndarray


def kernel_tables(
    cache: RowSummationCache, outer_words: np.ndarray
) -> KernelTables:
    """CP's kernel tables: ``cache`` over the inner factor, whose tables
    every block shares, and the outer factor ``outer_words``.

    Component c covers the inner factor's column c inside the blocks whose
    outer row has bit c set.
    """
    outer = packing.unpack_bits(outer_words, cache.rank).T.astype(bool)
    return KernelTables(
        tuple(cache.groups),
        [np.ascontiguousarray(table.T) for table in cache.full_tables],
        cache.group_keys(outer_words),
        np.where(outer[:, None], cache.columns_packed[..., None], np.uint64(0)),
    )


def tucker_kernel_tables(
    outer: BitMatrix, inner: BitMatrix, core: np.ndarray, group_size: int
) -> KernelTables:
    """Boolean Tucker's kernel tables for a ``(rank, inner, outer)`` core.

    Blocks whose outer rows share a pattern ``u`` share the effective
    basis ``S_u ∘ innerᵀ``.  Per cache group the table holds one
    ``2**size`` slice per distinct pattern, and a block's outer key is
    ``(pattern << size) | (2**size - 1)``, so ``row_key & outer_key``
    lands in its pattern's slice.
    """
    patterns, pattern = np.unique(
        outer.to_dense(), axis=0, return_inverse=True
    )
    pattern = pattern.reshape(-1)
    basis = np.einsum("tio,po->pti", core, patterns, dtype=np.int64) > 0
    covered = np.einsum("pti,wi->ptw", basis, inner.to_dense(), dtype=np.int64)
    coverage = packing.pack_bits(covered > 0)  # (patterns, rank, n_words)
    n_patterns, _, n_words = coverage.shape
    groups = split_groups(core.shape[0], group_size)
    tables = []
    for start, size in groups:
        # All patterns in one doubling pass, with patterns x words as the
        # table's words; then word-major with pattern-major entries.
        rows = coverage[:, start : start + size].transpose(1, 0, 2)
        table = or_accumulate_table(rows.reshape(size, -1), size)
        table = table.reshape(1 << size, n_patterns, n_words).transpose(2, 1, 0)
        tables.append(np.ascontiguousarray(table).reshape(n_words, -1))
    return KernelTables(
        tuple(groups),
        tables,
        [(pattern << size) | ((1 << size) - 1) for _, size in groups],
        np.ascontiguousarray(coverage[pattern].transpose(1, 2, 0)),
    )


def column_keys(
    tables: KernelTables, masks_if_zero: np.ndarray, column: int
) -> ColumnKeys:
    """The kernel's inputs for one column: ``masks_if_zero`` are the packed
    target rows with ``column`` forced to 0."""
    coverage = tables.coverage[column]
    return ColumnKeys(
        [
            keys | -(1 << size)  # every bit above the group: ~(2**size - 1)
            for keys, (_, size) in zip(
                group_keys(tables.groups, masks_if_zero), tables.groups
            )
        ],
        coverage.any(axis=0),
        coverage,
    )


@functools.lru_cache(maxsize=1024)
def _pvm_window(first: Block, last: Block) -> tuple[np.ndarray, int]:
    """``(window, n_edges)`` of a partition whose end blocks ``first`` and
    ``last`` are not both full.

    Only the end blocks can be partial (Lemma 3).  ``window`` is an
    ``(n_words, n_pvms)`` mask of each PVM's full-width words down to the
    partition's columns, which also hides the neighbour bits of a slab
    that views a shared unfolding.
    """
    edges = {block for block in (first, last) if not block.is_full}
    n_pvms = last.pvm_index - first.pvm_index + 1
    bits = np.ones((n_pvms, first.width), dtype=np.uint8)
    bits[0, : first.start] = 0
    bits[-1, last.stop :] = 0
    window = np.ascontiguousarray(packing.pack_bits(bits).T)
    window.setflags(write=False)
    return window, len(edges)


def column_errors(
    data: PartitionData,
    tables: KernelTables,
    keys: ColumnKeys,
    *,
    seed: bool = False,
) -> "tuple[np.ndarray, np.ndarray | None]":
    """One partition's per-row error change for one column.

    Returns ``(change, error_if_zero)``.  ``change`` is each row's
    ``error_if_one - error_if_zero`` over the *active* PVM blocks
    (``keys.active``): outside them both candidates reconstruct the
    same cells, so it is also the change over the whole partition.  With
    ``seed=True`` every block is evaluated and ``error_if_zero`` is each
    row's full reconstruction error with the column at 0; otherwise it is
    ``None``.
    """
    blocks = data.plan.blocks
    window, n_edges = None, 0
    if blocks and not (blocks[0].is_full and blocks[-1].is_full):
        window, n_edges = _pvm_window(blocks[0], blocks[-1])
    with kernel_span(
        "cp.columnErrors",
        rows=data.n_rows,
        full_blocks=len(blocks) - n_edges,
        edge_blocks=n_edges,
    ):
        return _column_errors(data, tables, keys, window, seed)


def _column_errors(data, tables, keys, window, seed):
    """All selected PVM blocks in one batched pass, rows last.

    Only candidate 0 needs a cache gather: setting the entry to 1
    Boolean-adds component c's coverage, ``rec1 = rec0 | cover``, which
    flips exactly the cells of ``newly = cover & ~rec0`` — a gain where the
    tensor is 0 and a loss where it is 1 — so the change is
    ``popcount(newly) - 2 * popcount(newly & X)``.
    """
    n_rows = data.n_rows
    span = data.plan.pvm_span
    active = keys.active[span]
    selected = np.arange(active.size) if seed else active.nonzero()[0]
    if not selected.size:
        change = np.zeros(n_rows, dtype=np.int64)
        return change, (change.copy() if seed else None)
    if metrics_enabled():
        record_metric("cache_fetches_total")
    pvms = span.start + selected
    # buffer[0] gathers rec0 and becomes `newly`; buffer[1] is scratch for
    # further groups and then holds `newly & X`.
    buffer = np.empty(
        (2, len(keys.coverage), selected.size, n_rows), dtype=np.uint64
    )
    rec_zero, scratch = buffer
    for group, (table, outer_keys, row_keys) in enumerate(
        zip(tables.tables, tables.outer_keys, keys.row_keys)
    ):
        # One gather per group, rows last: (n_words, blocks, rows).
        np.take(
            table, outer_keys[pvms, None] & row_keys, axis=1,
            out=scratch if group else rec_zero, mode="clip",
        )
        if group:
            rec_zero |= scratch
    tensor = data.words[:, selected].T  # (n_words, blocks, rows)
    cover = keys.coverage[:, pvms]
    if window is not None:
        window = window[:, selected]
        cover &= window
    error_if_zero = None
    if seed:
        wrong = rec_zero ^ tensor
        if window is not None:
            wrong &= window[..., None]
        error_if_zero = np.bitwise_count(wrong).sum(axis=(0, 1), dtype=np.int64)
    newly = np.invert(rec_zero, out=rec_zero)
    newly &= cover[..., None]
    np.bitwise_and(newly, tensor, out=scratch)
    flipped, flipped_ones = np.bitwise_count(buffer).sum(
        axis=(1, 2), dtype=np.int64
    )
    return flipped - 2 * flipped_ones, error_if_zero


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


#: Worker-state slot of the kernel's tables (:class:`KernelTables`).
_TABLES_SLOT = "kernelTables"

#: Worker-state slot of the current column task's target masks.
_MASKS_SLOT = "targetMasks"

#: Worker-state slot of the current column task's kernel keys
#: (:class:`ColumnKeys`).
_KEYS_SLOT = "columnKeys"


def _kernel_tables(factors, rank: int, group_size: int) -> KernelTables:
    """This worker's :class:`KernelTables` for one factors broadcast.

    Algorithm 5's tables depend only on the broadcast, so every partition
    on a worker shares them, built on the worker's first task of the
    update and replaced by the next update's (see
    :func:`~repro.distengine.broadcast.worker_state`).  A broadcast that
    carries a core builds Tucker's tables.
    """

    def build(_previous) -> KernelTables:
        _, outer_words, inner_words, *core = factors.value
        if core:
            _, n_inner, n_outer = core[0].shape
            return tucker_kernel_tables(
                BitMatrix(outer_words.shape[0], n_outer, outer_words),
                BitMatrix(inner_words.shape[0], n_inner, inner_words),
                core[0], group_size,
            )
        inner = BitMatrix(inner_words.shape[0], rank, inner_words)
        return kernel_tables(RowSummationCache(inner, group_size), outer_words)

    return worker_state(
        factors.scope, _TABLES_SLOT, (factors.content_id, rank, group_size),
        build,
    )


def _applied(deltas: tuple) -> tuple:
    """The slot-key form of a column task's applied deltas."""
    return tuple((index, delta.content_id) for index, delta in deltas)


def _column_keys(
    factors, column: int, deltas: tuple, tables: KernelTables
) -> ColumnKeys:
    """This worker's :class:`ColumnKeys` for one column task, built once
    per column from the target masks (:func:`_target_masks`)."""
    masks = _target_masks(factors, column, deltas)
    key = (factors.content_id, column, _applied(deltas), tables.groups)
    return worker_state(
        factors.scope, _KEYS_SLOT, key,
        lambda _previous: column_keys(tables, masks, column),
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
    applied = _applied(deltas)
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
    shared :class:`KernelTables`, and the current target masks with their
    :class:`ColumnKeys`, all pure functions of the payload, which is what
    makes results bit-identical across serial, thread, and process
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

    @property
    def nbytes(self) -> int:
        """The payload's ledger size in O(1): what
        :func:`~repro.distengine.shuffle.estimate_bytes`' walk over the
        slots gives — each handle at its wire size, 8 bytes per number,
        flag, tuple and the payload object itself."""
        per_delta = HANDLE_WIRE_BYTES + 2 * 8  # (column, handle) tuple
        return HANDLE_WIRE_BYTES + 6 * 8 + per_delta * len(self.deltas)

    def __call__(self, data: PartitionData):
        tables = _kernel_tables(self.factors, self.rank, self.group_size)
        keys = _column_keys(self.factors, self.column, self.deltas, tables)
        change, error_if_zero = column_errors(data, tables, keys, seed=self.seed)
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
    core: "np.ndarray | None" = None,
):
    """Update ``target`` to minimize ``|X_(n) ⊕ target ∘ (outer ⊙ inner)ᵀ|``.

    With a Boolean Tucker ``core`` — permuted to ``(target, inner, outer)``
    modes — the model is ``target ∘ [G_(1) (outer ⊗ inner)ᵀ]`` instead,
    and ``config.rank`` is the core's first size.  ``None`` is CP.

    ``error_before`` is the exact reconstruction error of the input
    factors, when the caller knows it (a solve's previous update returned
    it).  Every evaluated column then scans only its active blocks and
    the error is carried forward from it
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
        [target.words, outer.words, inner.words]
        + ([] if core is None else [core]),
        name="updateFactor.broadcast",
    )
    # Algorithm 5: the kernel's tables depend only on this broadcast, so
    # each worker builds them once, on its first column task, and every
    # partition it holds shares them (`_kernel_tables`).  The column
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
