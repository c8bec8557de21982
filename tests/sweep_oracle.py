"""A brute-force Algorithm 4, and the rounds DBTF's update takes for it.

:func:`sweep` updates a target factor column by column and, within a
column, row by row, re-counting the whole unfolded tensor's error for
both candidate values of every entry; ties keep 0.  It shares nothing with
``repro.core.update`` but the model: row ``r`` of the unfolding is
reconstructed as the OR of the basis rows ``c`` with ``target[r, c] = 1``.

:func:`predicted_rounds` turns the sweep's per-row change history into the
number of rounds — stages — that ``update_factor`` needs: round 1
evaluates the swept columns it knows of at the starting bits, and a row
needs one more round after each change that has a swept column after it,
and after reaching a column that only the escalation on change added.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import MODE_FACTOR_ROLES


def unfolded(dense: np.ndarray, mode: int) -> np.ndarray:
    """The mode-``mode`` unfolding as a dense bool matrix: rows index the
    target's mode, columns run outer-mode-major over (outer, inner)."""
    target, outer, inner = MODE_FACTOR_ROLES[mode]
    return (
        np.transpose(dense, (target, outer, inner))
        .reshape(dense.shape[target], -1)
        .astype(bool)
    )


def basis(
    outer: np.ndarray, inner: np.ndarray, core: "np.ndarray | None" = None
) -> np.ndarray:
    """``(rank, outer_rows * inner_rows)``: the cells each target column
    covers — CP's ``outer[:, c] ⊗ inner[:, c]``, or with a ``(rank, inner,
    outer)`` Tucker core ``OR_io g[t, i, o] outer[:, o] ⊗ inner[:, i]``."""
    if core is None:
        cells = np.einsum("jc,wc->cjw", outer, inner, dtype=np.int64)
    else:
        cells = np.einsum("tio,jo,wi->tjw", core, outer, inner, dtype=np.int64)
    return cells.reshape(len(cells), -1) > 0


def _row_errors(x, target, cells):
    """Each row's ``|X ⊕ target ∘ cells|``."""
    reconstruction = (target.astype(np.int64) @ cells.astype(np.int64)) > 0
    return (reconstruction ^ x).sum(axis=1)


def error(x: np.ndarray, target: np.ndarray, cells: np.ndarray) -> int:
    """``|X ⊕ target ∘ cells|`` over the whole unfolding."""
    return int(_row_errors(x, target, cells).sum())


def sweep(
    x: np.ndarray,
    target: np.ndarray,
    cells: np.ndarray,
    dirty: "set[int] | None" = None,
    *,
    by_row: bool = True,
):
    """Algorithm 4, one entry at a time.

    With a ``dirty`` set only its columns are swept until a swept column
    changes; every later column is swept too.  Returns ``(updated, error,
    swept, changes)``: the new target, its error, the swept columns in
    order and the ``(rows, rank)`` mask of the entries that changed.

    With ``by_row=False`` each column's rows are decided together from
    their own rows' errors, which is the same sweep — a row's decision
    reads only its own row — at a size where one whole-tensor count per
    entry is too slow.
    """
    updated = np.array(target, dtype=np.uint8)
    n_rows, rank = updated.shape
    escalated = dirty is None
    swept = []
    changes = np.zeros((n_rows, rank), dtype=bool)
    for column in range(rank):
        if not (escalated or column in dirty):
            continue
        swept.append(column)
        if not by_row:
            before = updated[:, column].copy()
            updated[:, column] = 0
            if_zero = _row_errors(x, updated, cells)
            updated[:, column] = 1
            if_one = _row_errors(x, updated, cells)
            updated[:, column] = if_one < if_zero
            changes[:, column] = updated[:, column] != before
        for row in range(n_rows if by_row else 0):
            before = updated[row, column]
            updated[row, column] = 0
            if_zero = error(x, updated, cells)
            updated[row, column] = 1
            if_one = error(x, updated, cells)
            updated[row, column] = if_one < if_zero
            changes[row, column] = updated[row, column] != before
        escalated = escalated or bool(changes[:, column].any())
    return updated, error(x, updated, cells), swept, changes


def predicted_rounds(
    swept: "list[int]", first_round: "set[int]", changes: np.ndarray
) -> int:
    """The stages ``update_factor`` takes for a sweep's change history.

    ``first_round`` holds the columns round 1 evaluates (every column, or
    the dirty ones).  Each row walks the swept columns: it needs a new
    round at the column after each of its changes, and at the first swept
    column round 1 did not evaluate.  The update takes as many rounds as
    its slowest row.  On the batch path that is ``1 +`` the row's changes
    before the last swept column.
    """
    rounds = 0
    for row in changes:
        needed, resume = 1, False
        for column in swept:
            if resume or (needed == 1 and column not in first_round):
                needed += 1
            resume = bool(row[column])
        rounds = max(rounds, needed)
    return rounds if swept else 0
