"""The distributed factor-matrix update (paper Algorithm 4).

One call updates one factor matrix.  For every column c and every row r,
the errors of setting ``target[r, c]`` to 0 and to 1 are compared across
all partitions: each partition fetches the cached Boolean row summation
``rec0`` keyed by ``target_row_mask AND outer_row_mask`` per block and
counts, against its slice of the unfolded tensor ``X``, the row's error
change ``d = err1 - err0``.  Candidate 1 adds component c's coverage,
``rec1 = rec0 | cover``, so ``d = popcount(cover & ~rec0) - 2 *
popcount(cover & ~rec0 & X)``.  The driver sums ``d`` over the partitions
and sets the bit where ``d < 0``.

Algorithm 4 walks the columns in order, but while one factor is updated
the other two stay fixed, so row r's decision for column c depends only
on ``X``'s row r and on row r's own bits: rows never see each other's
changes.  The update therefore runs in *rounds* of one stage each
(:func:`update_factor`):

* round 1 evaluates every (row, column) pair at the update's starting
  bits (every uncertified one, see below);
* the driver walks each row's columns in order and accepts every decision
  up to and including the row's first change, which it applies; the row
  is then pending from the next column;
* each later round evaluates only the pending rows, each from its own
  resume column, against the bits accepted so far.

Every accepted decision is evaluated at exactly the bits the column-by-
column sweep would have, so the results are the sweep's, and a round
confirms at least one column of every pending row, so an update never
takes more rounds than it has columns.

The two candidates differ only inside the PVM blocks that component c
covers (the *active* blocks: for CP, those with ``outer[j, c] = 1``);
every other block adds the same error to both and cannot move a
decision.  So pairs evaluate their column's active blocks alone and the
driver carries the exact error forward by each accepted decision's change
(:func:`_confirm`).  The error it starts from is the caller's
``error_before`` — the previous update's ``error_after`` in a solve — and
only when the caller does not know it does round 1 scan every block of
its first column to seed it.

:func:`column_errors` evaluates one partition's share of a round as a
grid of (column, active block) entries by rows, partial edge blocks
included, in a fixed number of numpy passes per chunk of entries: one
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
broadcast, the kernel's :class:`KernelTables`; per round, the
:class:`ColumnKeys` of its pairs.  Per round only the pending rows and
their accepted bits move (the ``columnUpdate`` broadcast).

A pair's decision reads three inputs only: the row's tensor cells inside
the column's support rectangle, the row's other bits, and the two fixed
factors.  An epoch stream re-runs updates whose inputs barely move, so a
caller may keep :class:`DecisionCertificates` per mode: the pairs whose
last accepted decision was "keep", each with the slack its ``d`` had to
the decision's boundary.  A changed tensor cell inside the rectangle
moves ``d`` by at most 2 and is charged that much; a pair whose slack is
not negative stands as "keep" without being evaluated, and a round ships
only the rows that still hold an uncertified pair.  An update with no
uncertified pair in scope returns before its first round: nothing ships,
so the bits, the error and the certificates are already what the rounds
would leave.
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
    "DecisionCertificates",
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
    #: n_entries)``, so one gather yields triples-last summations.
    tables: list
    #: Per cache group, every PVM block's key bits, ``(n_pvms,)``.  A
    #: block's key is ``row_key & outer_key``, and pair row keys carry
    #: every bit above the group's ``size`` (:func:`column_keys`), so the
    #: high bits of an outer key select the block's table.
    outer_keys: list
    #: ``(n_words, rank, n_pvms)``: component c's coverage inside every
    #: PVM block, zero where it covers nothing.
    coverage: np.ndarray
    #: ``(rank, n_pvms)``: the blocks component c covers.  Only there do
    #: a pair's two candidates differ.
    active: np.ndarray


class ColumnKeys(NamedTuple):
    """What the column kernel reads of one round: a grid of its columns
    by its rows, and which (row, column) pairs of it the round evaluates
    (:func:`column_keys`).

    Each worker builds it once per round (:func:`_round_keys`).
    """

    #: ``(n_columns,)``: the round's columns, ascending.
    columns: np.ndarray
    #: ``(n_rows,)``: the target rows the round evaluates, ascending.
    rows: np.ndarray
    #: Per cache group, ``(n_columns, n_rows)``: each row's key with the
    #: column cleared and every bit above the group set.  Bit extraction
    #: commutes with AND, so the key in PVM block ``j`` is
    #: ``row_keys[g][k, i] & outer_keys[g][j]``.
    row_keys: list
    #: ``(n_columns, n_rows)``: the (row, column) pairs the round
    #: evaluates (:func:`_round_grid`).
    pairs: np.ndarray


def kernel_tables(
    cache: RowSummationCache, outer_words: np.ndarray
) -> KernelTables:
    """CP's kernel tables: ``cache`` over the inner factor, whose tables
    every block shares, and the outer factor ``outer_words``.

    Component c covers the inner factor's column c inside the blocks whose
    outer row has bit c set.
    """
    outer = packing.unpack_bits(outer_words, cache.rank).T.astype(bool)
    coverage = np.ascontiguousarray(
        np.where(outer, cache.columns_packed.T[..., None], np.uint64(0))
    )
    return KernelTables(
        tuple(cache.groups),
        [np.ascontiguousarray(table.T) for table in cache.full_tables],
        cache.group_keys(outer_words),
        coverage,
        coverage.any(axis=0),
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
    coverage = np.ascontiguousarray(coverage[pattern].transpose(2, 1, 0))
    return KernelTables(
        tuple(groups),
        tables,
        [(pattern << size) | ((1 << size) - 1) for _, size in groups],
        coverage,
        coverage.any(axis=0),
    )


def _round_grid(
    columns, resume: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One round's grid: ``(columns, pairs)``.

    ``columns`` are the ascending columns the round may evaluate and
    ``resume`` each evaluated row's first column.  The grid keeps the
    columns from the lowest resume column on, and ``pairs`` marks, per
    grid column and row, the (row, column) pairs the round evaluates:
    row ``i`` at every column ``c >= resume[i]``.  The driver and the
    workers both derive a round's grid here, so only the changes of its
    pairs travel, column by column.
    """
    columns = np.atleast_1d(columns)
    if resume.size:
        columns = columns[columns >= resume.min()]
    return columns, columns[:, None] >= resume[None, :]


def column_keys(
    tables: KernelTables,
    masks: np.ndarray,
    columns,
    *,
    rows: "np.ndarray | None" = None,
    resume: "np.ndarray | None" = None,
) -> ColumnKeys:
    """The kernel's inputs for one round.

    ``masks`` are the packed target rows the round evaluates, ``rows``
    their target indices (every row by default) and ``resume`` each one's
    first column (0 by default); ``columns`` is one column or the
    ascending columns the round may evaluate (:func:`_round_grid`).
    """
    if rows is None:
        rows = np.arange(masks.shape[0])
    if resume is None:
        resume = np.zeros(masks.shape[0], dtype=np.int64)
    columns, pairs = _round_grid(columns, resume)
    row_keys = []
    for keys, (start, size) in zip(
        group_keys(tables.groups, masks), tables.groups
    ):
        keys = np.repeat((keys | -(1 << size))[None], columns.size, axis=0)
        inside = (columns >= start) & (columns < start + size)
        keys[inside] &= ~np.left_shift(1, columns[inside] - start)[:, None]
        row_keys.append(keys)
    return ColumnKeys(columns, rows, row_keys, pairs)


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
    """One partition's error change for every pair of one round.

    Returns ``(change, error_if_zero)``.  ``change[p]`` is pair ``p``'s
    ``error_if_one - error_if_zero`` over its column's *active* PVM blocks
    (``tables.active``): outside them both candidates reconstruct the
    same cells, so it is also the change over the whole partition.  With
    ``seed=True`` the pairs of the keys' first column are evaluated over
    every block, and ``error_if_zero`` holds each of those pairs' full
    reconstruction error with the column at 0; otherwise it is ``None``.
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


#: Words per buffer of one kernel chunk: a round's (column, block) entries
#: are evaluated a few at a time, so the word-wide scratch stays small and
#: in cache however many columns a round has.
_CHUNK_WORDS = 1 << 15


def _column_errors(data, tables, keys, window, seed):
    """A round's grid of (column, block) entries by rows, chunk by chunk.

    An entry is one selected PVM block of one of the round's columns;
    every entry is evaluated for every row of the round, rows last, and
    the driver's pairs are read off the resulting columns-by-rows change.
    Only candidate 0 needs a cache gather: setting the entry to 1
    Boolean-adds component c's coverage, ``rec1 = rec0 | cover``, which
    flips exactly the cells of ``newly = cover & ~rec0`` — a gain where
    the tensor is 0 and a loss where it is 1 — so the change is
    ``popcount(newly) - 2 * popcount(newly & X)``.
    """
    span = data.plan.pvm_span
    n_rows = keys.rows.size
    selected = tables.active[keys.columns][:, span]
    if seed and keys.columns.size:
        selected[0] = True  # the seeded column spans every block
    change = np.zeros((keys.columns.size, n_rows), dtype=np.int64)
    error_if_zero = np.zeros(n_rows, dtype=np.int64) if seed else None
    # Entries, grouped by column.
    column, blocks = selected.nonzero()
    if column.size and n_rows:
        if metrics_enabled():
            record_metric("cache_fetches_total")
        pvms = span.start + blocks
        cover = tables.coverage[:, keys.columns[column], pvms]
        if window is not None:
            cover &= window[:, blocks]
        n_words = len(cover)
        every_row = n_rows == data.n_rows
        step = max(1, _CHUNK_WORDS // (n_words * n_rows))
        for lo in range(0, column.size, step):
            entries = slice(lo, lo + step)
            of_column, of_block = column[entries], blocks[entries]
            # buffer[0] gathers rec0 and becomes `newly`; buffer[1] is
            # scratch for further groups and then holds `newly & X`.
            buffer = np.empty(
                (2, n_words, of_column.size, n_rows), dtype=np.uint64
            )
            rec_zero, scratch = buffer
            for group, (table, outer_keys, row_keys) in enumerate(
                zip(tables.tables, tables.outer_keys, keys.row_keys)
            ):
                np.take(
                    table, outer_keys[pvms[entries], None] & row_keys[of_column],
                    axis=1, out=scratch if group else rec_zero, mode="clip",
                )
                if group:
                    rec_zero |= scratch
            if every_row:
                tensor = data.words[:, of_block]
            else:
                tensor = data.words[keys.rows[:, None], of_block]
            tensor = tensor.transpose(2, 1, 0)  # (n_words, entries, rows)
            if seed and of_column[0] == 0:
                wrong = rec_zero ^ tensor
                if window is not None:
                    wrong &= window[:, of_block, None]
                wrong = np.bitwise_count(wrong).sum(axis=0, dtype=np.int64)
                error_if_zero += wrong[of_column == 0].sum(axis=0)
            newly = np.invert(rec_zero, out=rec_zero)
            newly &= cover[:, entries, None]
            np.bitwise_and(newly, tensor, out=scratch)
            # Popcounts in place: the buffer is not read again.
            flipped, flipped_ones = np.bitwise_count(buffer, out=buffer).sum(
                axis=1
            ).view(np.int64)
            # Sum each column's entries: they are adjacent.
            starts = np.flatnonzero(
                np.concatenate(([True], of_column[1:] != of_column[:-1]))
            )
            change[of_column[starts]] += np.add.reduceat(
                flipped - 2 * flipped_ones, starts
            )
    if seed:
        error_if_zero = error_if_zero[keys.pairs[0]]
    return change[keys.pairs], error_if_zero


#: Worker-state slot of the kernel's tables (:class:`KernelTables`).
_TABLES_SLOT = "kernelTables"

#: Worker-state slot of the current round's kernel keys
#: (:class:`ColumnKeys`).
_KEYS_SLOT = "roundKeys"


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


def _round_keys(
    factors, pending, columns: int, tables: KernelTables
) -> ColumnKeys:
    """This worker's :class:`ColumnKeys` for one round, built once per
    round and shared by every partition the worker holds.

    A round 1 of every row (``pending=None``) evaluates it at the factors
    broadcast's starting bits; any other round's ``pending`` broadcast
    carries its rows, their resume columns and their accepted bits.  The
    slot key names both broadcasts and the columns, so the keys are a pure
    function of the task payload — bit-identical on every backend.
    """
    key = (
        factors.content_id,
        None if pending is None else pending.content_id,
        columns,
        tables.groups,
    )

    def build(_previous) -> ColumnKeys:
        allowed = packing.indices_from_mask(columns)
        if pending is None:
            return column_keys(tables, factors.value[0], allowed)
        rows, resume, masks = pending.value
        return column_keys(tables, masks, allowed, rows=rows, resume=resume)

    return worker_state(factors.scope, _KEYS_SLOT, key, build)


class _ColumnRoundTask:
    """Stage payload: one round's error change per (row, column) pair.

    Ships two broadcast handles — the factors, and the round's pending
    rows with their accepted bits (``None`` when round 1 evaluates every
    row) — the columns it
    may evaluate as a bitmask, the tables' rank and group size, and the
    seed flag.  The worker keeps the
    derived state — the shared :class:`KernelTables` and the round's
    :class:`ColumnKeys` — all pure functions of the payload, which is what
    makes results bit-identical across the serial and process
    backends.

    Returns each pair's ``error_if_one - error_if_zero`` over the active
    blocks, column by column (:func:`_round_grid`).  A ``seed`` task — round 1 of an
    update whose caller did not know the starting error — scans every
    block of the round's first column instead and also returns the
    partition's total ``error_if_zero`` there, from which the driver
    seeds the exact error.
    """

    __slots__ = ("factors", "pending", "columns", "rank", "group_size", "seed")

    def __init__(
        self,
        factors,
        pending,
        columns: int,
        rank: int,
        group_size: int,
        seed: bool = False,
    ):
        self.factors = factors
        self.pending = pending
        self.columns = columns
        self.rank = rank
        self.group_size = group_size
        self.seed = seed

    @property
    def nbytes(self) -> int:
        """The payload's ledger size in O(1): what
        :func:`~repro.distengine.shuffle.estimate_bytes`' walk over the
        slots gives — each handle at its wire size, 8 bytes per number and
        flag and for the payload object itself, nothing for ``None``."""
        handles = 1 + (self.pending is not None)
        return HANDLE_WIRE_BYTES * handles + 5 * 8

    def __call__(self, data: PartitionData):
        tables = _kernel_tables(self.factors, self.rank, self.group_size)
        keys = _round_keys(self.factors, self.pending, self.columns, tables)
        change, error_if_zero = column_errors(data, tables, keys, seed=self.seed)
        if self.seed:
            return change, int(error_if_zero.sum())
        return change


class DecisionCertificates:
    """One mode's certified decisions, kept across its updates.

    ``slack`` is a ``(rows, rank)`` int array: for each certified pair, how
    far its error change ``d = err1 - err0`` may move before the decision
    it last accepted could change, and ``-1`` for every other pair.  A
    decision to set the bit stands while ``d < 0`` and one to clear it
    while ``d >= 0`` (ties keep 0), so a pair evaluated at ``d`` whose
    final bit is 1 is issued ``-d - 1`` and one whose final bit is 0 is
    issued ``d``.  The factor words it was issued for are kept with it.
    Inputs change in three ways:

    * a row's bits flip: the update drops the row's pairs;
    * the outer or inner factor changes: :meth:`valid` finds no
      certificate, and it also drops the rows whose target bits differ
      from the snapshot, so an initial set, a warm start or a checkpoint
      resume starts clean;
    * a tensor cell changes (:meth:`charge_cells`): each pair whose
      support rectangle holds it loses 2 of its slack, the most one cell
      can move ``d``, and is dropped once its slack is negative.

    CP only: Tucker's coverage is not a rectangle of the two factors.
    """

    __slots__ = ("slack", "target", "fixed")

    def __init__(self):
        self.slack: "np.ndarray | None" = None
        self.target: "np.ndarray | None" = None
        self.fixed: "tuple[np.ndarray, np.ndarray] | None" = None

    def valid(
        self, target: BitMatrix, outer: BitMatrix, inner: BitMatrix
    ) -> np.ndarray:
        """The slack of the certificates that hold for these factors, as a
        fresh array, ``-1`` where none holds."""
        if self.slack is None or not all(
            np.array_equal(words, snapshot)
            for words, snapshot in zip((outer.words, inner.words), self.fixed)
        ):
            return np.full((target.n_rows, target.n_cols), -1, dtype=np.int64)
        slack = self.slack.copy()
        slack[(target.words != self.target).any(axis=1)] = -1
        return slack

    def issue(
        self, slack: np.ndarray, target: BitMatrix, outer: BitMatrix,
        inner: BitMatrix,
    ) -> None:
        """Keep ``slack``, issued for these factors."""
        self.slack = slack
        self.target = target.words.copy()
        self.fixed = (outer.words.copy(), inner.words.copy())

    def charge_cells(
        self, rows: np.ndarray, blocks: np.ndarray, offsets: np.ndarray
    ) -> None:
        """Charge the changed tensor cells of this mode's unfolding.

        Cell ``(row, block, offset)`` lies in component c's support
        rectangle when ``outer[block, c] & inner[offset, c]``; outside it
        both candidates of pair ``(row, c)`` reconstruct the cell alike,
        and inside it the cell moves ``d`` by at most 2.  The snapshot's
        factors decide: certificates issued for other factors fail
        :meth:`valid` anyway.
        """
        if self.slack is None or not rows.size:
            return
        outer, inner = self.fixed
        rank = self.slack.shape[1]
        inside = packing.unpack_bits(outer[blocks], rank)
        inside &= packing.unpack_bits(inner[offsets], rank)
        cell, column = inside.nonzero()
        np.subtract.at(self.slack, (rows[cell], column), 2)


def _confirm(
    change: np.ndarray,
    flip: np.ndarray,
    evaluated: np.ndarray,
    current: np.ndarray,
    scope: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decisions of one round that the column sweep would make too.

    All arrays are ``(rows, rank)`` over the round's rows: ``change`` each
    evaluated pair's ``error_if_one - error_if_zero``, ``flip`` the pairs
    whose decision differs from ``current``, the bits before the round,
    and ``scope`` the columns the sweep evaluates from each row's resume
    column on.  A row's decisions stand, in column order, up to and
    including its first change and up to (excluding) its first column in
    scope that the round did not evaluate.

    Returns ``(limit, flips, moved)``: each row's first column left to
    evaluate (``rank`` when it is done), the ``(row, column)`` mask of the
    accepted changes, and per column how far they move the reconstruction
    error — outside the active blocks both candidates reconstruct the same
    cells, so an accepted pair moves its row's error from its current
    value's by ``min(0, d) - current * d``.
    """
    stop = scope & (flip | ~evaluated)
    first = stop.argmax(axis=1)
    rows = np.arange(len(first))
    stopped = stop[rows, first]
    flipped = stopped & flip[rows, first]
    rank = change.shape[1]
    limit = np.where(stopped, first + flipped, rank)
    accepted = scope & (np.arange(rank) < limit[:, None])
    moved = np.where(accepted, np.minimum(change, 0) - current * change, 0)
    flips = np.zeros_like(flip)
    flips[rows[flipped], first[flipped]] = True
    return limit, flips, moved.sum(axis=0)


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
    certificates: "DecisionCertificates | None" = None,
):
    """Update ``target`` to minimize ``|X_(n) ⊕ target ∘ (outer ⊙ inner)ᵀ|``.

    With a Boolean Tucker ``core`` — permuted to ``(target, inner, outer)``
    modes — the model is ``target ∘ [G_(1) (outer ⊗ inner)ᵀ]`` instead,
    and ``config.rank`` is the core's first size.  ``None`` is CP.

    The result is Algorithm 4's column-by-column sweep; it is computed in
    rounds of one stage each (see the module docstring), at most one per
    column.

    ``error_before`` is the exact reconstruction error of the input
    factors, when the caller knows it (a solve's previous update returned
    it).  Every pair then scans only its active blocks and the error is
    carried forward from it (:func:`_confirm`).  With ``None`` round 1
    scans every PVM block of its first column to seed it.

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
    decisions are no longer trustworthy.  Round 1 evaluates the dirty
    columns only; a row whose walk reaches a column that only the
    escalation added resumes there.  The return value becomes
    ``(updated, error_after, changed_columns)``; skipped columns keep their
    bits and so leave the error unchanged, and it is ``error_before`` when
    no column was evaluated (``None`` if that is unknown too).

    ``certificates`` (CP only) are this mode's
    :class:`DecisionCertificates`: certified pairs stand as "keep" with
    zero error movement, a round ships only the rows holding an
    uncertified pair, and the update leaves the certificates of its own
    decisions behind — the exact slack of each accepted pair the kernel
    evaluated, certified or not, and the carried slack of each held pair
    it did not, except in rows that flipped.  An update with no
    uncertified pair in scope returns before its first round, with the
    bits unchanged, ``error_before`` and no changed column.  The result
    is the same with or without certificates.  An update that seeds its
    error evaluates every row; without certificates no slack is kept.
    """
    rank = config.rank
    if target.n_cols != rank:
        raise ValueError(
            f"target has {target.n_cols} columns but config.rank is {rank}"
        )
    if certificates is not None and core is not None:
        raise ValueError("decision certificates are CP-only")
    swept = np.ones(rank, dtype=bool)
    if dirty_columns is not None:
        dirty = {int(column) for column in dirty_columns}
        if any(not 0 <= column < rank for column in dirty):
            raise ValueError(
                f"dirty_columns {sorted(dirty)} out of range for rank {rank}"
            )
        if not dirty:
            runtime.metrics.counter("incremental_columns_skipped_total").inc(
                rank
            )
            return target.copy(), error_before, set()
        swept[:] = False
        swept[sorted(dirty)] = True
    # Each pair's certificate slack, -1 where none holds (always, without
    # certificates).
    slack = np.full((target.n_rows, rank), -1, dtype=np.int64)
    if certificates is not None and error_before is not None:
        slack = certificates.valid(target, outer, inner)
        if (slack[:, swept] >= 0).all():
            # Every pair in scope stands as "keep": no round would ship a
            # row, so no bit or error moves, and the certificates already
            # hold what the rounds would leave behind.
            return _result(
                runtime, dirty_columns is not None, swept, target.copy(),
                error_before, np.zeros(rank, dtype=bool),
            )
    # The factor matrices ship to the workers with the first stage (paper
    # Sec. III-E: factor matrices are broadcast each iteration); the round
    # tasks reference this broadcast by id instead of embedding the arrays.
    # Algorithm 5: the kernel's tables depend only on this broadcast, so
    # each worker builds them once, on its first task, and every partition
    # it holds shares them (`_kernel_tables`).  The round stages map
    # straight over the persisted partitions; nothing derived from the
    # factors is persisted or spilled.
    factors = None
    updated = target.copy()
    error = error_before
    order = np.arange(rank)
    rows = np.arange(target.n_rows)
    resume = np.zeros(target.n_rows, dtype=np.int64)
    columns = np.flatnonzero(swept)
    changed = np.zeros(rank, dtype=bool)
    first_round = True
    while rows.size:
        held = slack[rows] >= 0
        in_round = np.zeros(rank, dtype=bool)
        in_round[columns] = True
        open_pairs = in_round & (order >= resume[:, None]) & ~held
        shipped = np.flatnonzero(open_pairs.any(axis=1))
        change = np.zeros((rows.size, rank), dtype=np.int64)
        # The pairs the kernel evaluated this round, held ones included.
        computed = np.zeros((rows.size, rank), dtype=bool)
        current = packing.unpack_bits(updated.words[rows], rank)
        if shipped.size:
            if factors is None:
                factors = runtime.broadcast(
                    [target.words, outer.words, inner.words]
                    + ([] if core is None else [core]),
                    name="updateFactor.broadcast",
                )
            # Each shipped row from its first uncertified pair on.
            ship_rows = rows[shipped]
            ship_resume = open_pairs[shipped].argmax(axis=1)
            pending = None
            if not (
                first_round
                and shipped.size == target.n_rows
                and (ship_resume == columns[0]).all()
            ):
                # The shipped rows, their resume columns and their accepted
                # bits: the round evaluates only these.  A round 1 of every
                # pair reads the factors broadcast's bits instead.
                pending = runtime.broadcast(
                    (ship_rows, ship_resume, updated.words[ship_rows]),
                    name="columnUpdate",
                )
            seed = error is None
            task = _ColumnRoundTask(
                factors, pending, packing.mask_from_indices(columns), rank,
                config.cache_group_size, seed,
            )
            per_partition = data_rdd.map(task, name="columnErrors").collect(
                name="collectColumnErrors"
            )
            if pending is not None:
                runtime.release_broadcast(pending)
            if seed:
                per_partition, zero_errors = zip(*per_partition)
            grid, pairs = _round_grid(columns, ship_resume)
            total = np.zeros(pairs.shape, dtype=np.int64)
            for partial in per_partition:
                total[pairs] += partial
            change[shipped[:, None], grid] = total.T
            computed[shipped[:, None], grid] = pairs.T
            if seed:
                # Round 1's first column spans every block and every row
                # ships, so the factors' exact error is every row's error
                # at its current bit there.
                first = grid[0]
                error = sum(zero_errors) + int(
                    change[current[:, first] != 0, first].sum()
                )
        # Strict inequality: ties keep 0, favouring sparser factors (the
        # paper does not specify a tie rule; see DESIGN.md).  A certified
        # pair keeps its bit whatever `change` reads for it.
        flip = computed & ~held & ((change < 0) != (current != 0))
        if first_round and dirty_columns is not None and flip.any():
            # Escalate on change: the sweep evaluates every column after
            # its first changed one.
            swept[flip.any(axis=0).argmax() + 1 :] = True
        scope = swept & (order >= resume[:, None])
        limit, flips, moved = _confirm(
            change, flip, held | computed, current, scope
        )
        error += int(moved.sum())
        changed |= flips.any(axis=0)
        if certificates is not None:
            # A row's accepted decisions are keeps at its final bits unless
            # it flipped; a flip leaves only the flipped pair, a keep at the
            # new bits (its decision does not read its own bit).  Each
            # accepted pair the kernel evaluated, held or not, is issued
            # its exact slack; a held pair it did not evaluate keeps its
            # own.
            final = (current != 0) ^ flips
            accepted = scope & (order < limit[:, None])
            issued = np.where(
                accepted & computed,
                np.where(final, -change - 1, change),
                np.where(held, slack[rows], -1),
            )
            issued[flips.any(axis=1)[:, None] & ~flips] = -1
            slack[rows] = issued
        flipped, flipped_column = flips.nonzero()
        word, offset = np.divmod(flipped_column, packing.WORD_BITS)
        updated.words[rows[flipped], word] ^= np.left_shift(
            np.uint64(1), offset.astype(np.uint64)
        )
        left = limit < rank
        rows, resume = rows[left], limit[left]
        columns = order
        first_round = False
    if factors is not None:
        runtime.release_broadcast(factors)
    if certificates is not None:
        certificates.issue(slack, updated, outer, inner)
    return _result(
        runtime, dirty_columns is not None, swept, updated, error, changed
    )


def _result(runtime, scoped, swept, updated, error, changed):
    """:func:`update_factor`'s return value; a scoped update also counts
    the columns it swept and skipped."""
    if not scoped:
        return updated, error
    runtime.metrics.counter("incremental_columns_swept_total").inc(
        int(swept.sum())
    )
    runtime.metrics.counter("incremental_columns_skipped_total").inc(
        int(swept.size - swept.sum())
    )
    return updated, error, {int(column) for column in np.flatnonzero(changed)}
