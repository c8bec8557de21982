"""Decision certificates change what an epoch evaluates, never its result.

A :class:`~repro.incremental.FactorizationSession` hands its
:class:`~repro.core.PartitionedUnfoldings`' per-mode certificates to every
update, so a round ships only rows with an uncertified pair.  The property
here: over random delta streams a session equals a certificate-free driver
of the same epochs — ``PartitionedUnfoldings`` plus ``dbtf_steps`` with
the same warm start, dirty columns and baseline error — in factors, error
traces, each update's changed columns and the swept/skipped counters, on
the serial and process backends, from two initial sets at epoch 0, and
after a kill and checkpoint resume mid-stream.  A spy pins the saving: a
steady-state hole-punch epoch ships no row, and a delta ships exactly the
rows whose certificate slack it drains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DbtfConfig,
    DecisionCertificates,
    PartitionedUnfoldings,
    baseline_error_after_delta,
    dbtf_steps,
    dirty_columns_for_delta,
    drive,
    update_factor,
)
from repro.bitops import BitMatrix
from repro.core import decompose, update
from repro.distengine import ClusterConfig, SimulatedRuntime, TransferKind
from repro.incremental import FactorizationSession
from repro.resilience import factors_from_state
from repro.tensor import (
    MODE_FACTOR_ROLES,
    SparseBoolTensor,
    TensorDelta,
    planted_tensor,
)
from repro.tensor.matricize import _mode_axes
from .sweep_oracle import basis, unfolded

#: The padded last index of every mode holds no nonzero at epoch 0, so its
#: factor rows are zero and a cell there lies in no support rectangle.
SHAPE = (10, 9, 8)


def _config(cluster, **overrides):
    return DbtfConfig(
        rank=3, n_partitions=3, seed=0, n_initial_sets=2, cluster=cluster,
        **overrides,
    )


def _cluster(backend):
    return ClusterConfig(
        n_machines=2, cores_per_machine=1, backend=backend,
        n_workers=2 if backend == "process" else None,
    )


def _tensor(seed):
    inner, _ = planted_tensor(
        tuple(n - 1 for n in SHAPE), rank=3, factor_density=0.35,
        rng=np.random.default_rng(seed), additive_noise=0.05,
        destructive_noise=0.05,
    )
    return SparseBoolTensor(SHAPE, inner.coords)


def _toggle(tensor, cells):
    """The delta that flips ``cells``: adds the absent, removes the present."""
    flat = np.unique(np.ravel_multi_index(np.asarray(cells).T, tensor.shape))
    present = np.isin(flat, tensor.flat)
    return TensorDelta(tensor.shape, flat[~present], flat[present])


def _stream(tensor, seed):
    """Random small and heavy deltas, one all-clean delta and one touching
    every row of every mode, in a seeded order."""
    rng = np.random.default_rng(seed)
    kinds = ["small", "heavy", "clean", "every-row", "small"]
    rng.shuffle(kinds)
    deltas, current = [], tensor
    for kind in kinds:
        if kind == "clean":
            last = [n - 1 for n in SHAPE]
            cells = [(last[0], last[1], int(rng.integers(SHAPE[2] - 1)))]
        elif kind == "every-row":
            cells = [(t % SHAPE[0], t % SHAPE[1], (3 * t) % SHAPE[2])
                     for t in range(max(SHAPE))]
        else:
            size = 4 if kind == "small" else 40
            cells = [tuple(int(rng.integers(n - 1)) for n in SHAPE)
                     for _ in range(size)]
        deltas.append(_toggle(current, cells))
        current = current.apply_delta(deltas[-1])
    return deltas


class _Spy:
    """Records each update's dirty columns and changed columns."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = decompose.update_factor

        def spied(data_rdd, target, outer, inner, config, runtime, **options):
            result = original(
                data_rdd, target, outer, inner, config, runtime, **options
            )
            dirty = options.get("dirty_columns")
            self.calls.append((
                None if dirty is None else sorted(dirty),
                sorted(result[2]) if len(result) == 3 else None,
            ))
            return result

        monkeypatch.setattr(decompose, "update_factor", spied)


def _counters(runtime):
    return (
        runtime.metrics.value("incremental_columns_swept_total"),
        runtime.metrics.value("incremental_columns_skipped_total"),
    )


def _record(result, runtime, before):
    swept, skipped = _counters(runtime)
    return (
        tuple(f.words.tobytes() for f in result.factors),
        tuple(result.errors_per_iteration),
        (swept - before[0], skipped - before[1]),
    )


def _reference(tensor, deltas, config):
    """The epochs without certificates: the session's steps by hand."""
    runtime = SimulatedRuntime(config.cluster)
    try:
        live = PartitionedUnfoldings.prepare(
            tensor, config.resolved_partitions(runtime.config), runtime
        )
        before = _counters(runtime)
        result = drive(dbtf_steps(
            tensor, config, runtime, shared_unfoldings=live.rdds
        ))
        epochs = [_record(result, runtime, before)]
        for delta in deltas:
            state = result.state
            warm = factors_from_state(state["factors"])
            tensor = tensor.apply_delta(delta)
            live.patch(delta)
            before = _counters(runtime)
            result = drive(dbtf_steps(
                tensor, config, runtime, warm_start=state,
                shared_unfoldings=live.rdds,
                dirty_columns=dirty_columns_for_delta(delta, warm),
                baseline_error=baseline_error_after_delta(
                    int(state["errors"][-1]), delta, warm
                ),
            ))
            epochs.append(_record(result, runtime, before))
        live.unpersist()
        return epochs, runtime.ledger.bytes_of_kind(TransferKind.COLLECT)
    finally:
        runtime.close()


def _session(tensor, deltas, config):
    with FactorizationSession(tensor, config) as session:
        epochs = [session.factorize()]
        epochs += [session.advance(delta) for delta in deltas]
        records = [
            (
                tuple(f.words.tobytes() for f in epoch.result.factors),
                tuple(epoch.result.errors_per_iteration),
                (epoch.columns_swept, epoch.columns_skipped),
            )
            for epoch in epochs
        ]
        collected = session.runtime.ledger.bytes_of_kind(TransferKind.COLLECT)
        return records, collected


class TestCertificatesChangeNothing:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_session_equals_certificate_free_driver(self, backend, seed):
        tensor = _tensor(seed)
        deltas = _stream(tensor, seed)
        config = _config(_cluster(backend))
        with pytest.MonkeyPatch.context() as monkeypatch:
            spy = _Spy(monkeypatch)
            want, want_collect = _reference(tensor, deltas, config)
            reference_calls, spy.calls = spy.calls, []
            got, got_collect = _session(tensor, deltas, config)
        assert got == want
        assert spy.calls == reference_calls
        assert got_collect <= want_collect

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), kill_after=st.integers(1, 12))
    def test_checkpoint_resume_mid_stream(
        self, seed, kill_after, tmp_path_factory
    ):
        # A killed session's replacement fast-forwards through the epochs
        # its predecessor finished and resumes the one it was in, with no
        # certificates; it must still land on the certificate-free epochs.
        tensor = _tensor(seed)
        deltas = _stream(tensor, seed)
        config = _config(_cluster("serial"))
        want, _ = _reference(tensor, deltas, config)
        root = tmp_path_factory.mktemp("ckpt")
        with FactorizationSession(
            tensor, config, checkpoint_root=root
        ) as killed:
            steps = killed.steps(deltas)
            for _ in range(kill_after):
                next(steps, None)
            steps.close()
        with FactorizationSession(
            tensor, config, checkpoint_root=root
        ) as resumed:
            epochs = resumed.run(deltas).epochs
        assert [
            (tuple(f.words.tobytes() for f in e.result.factors),
             tuple(e.result.errors_per_iteration))
            for e in epochs
        ] == [record[:2] for record in want]

    def test_stream_changes_factors_and_saves_collects(self):
        # The generated streams are not vacuous: some epochs move the
        # factors, and certificates cut what the rounds collect.
        tensor = _tensor(seed=4)
        deltas = _stream(tensor, seed=4)
        config = _config(_cluster("serial"))
        want, want_collect = _reference(tensor, deltas, config)
        got, got_collect = _session(tensor, deltas, config)
        assert got == want
        assert len({record[0] for record in want}) > 2
        assert got_collect < want_collect


def _hole_punch_stream(seed, dim=20, rank=4, ones=6, epochs=8, holes=4):
    """A noise-free planted tensor whose epoch ``e`` punches holes into
    cells only component ``e % 3`` covers and refills epoch ``e - 3``'s."""
    rng = np.random.default_rng(seed)
    dense = []
    for _ in range(3):
        factor = np.zeros((dim, rank), dtype=bool)
        for column in range(rank):
            factor[rng.choice(dim, size=ones, replace=False), column] = True
        dense.append(factor)
    cells = np.einsum("ir,jr,kr->ijkr", *dense)
    tensor = SparseBoolTensor.from_dense(cells.any(axis=3).astype(np.uint8))
    single = cells.sum(axis=3) == 1
    exclusive = [
        np.flatnonzero((single & cells[..., c]).reshape(-1)) for c in range(3)
    ]
    deltas, removed = [], []
    for epoch in range(epochs):
        refill = removed[epoch - 3] if epoch >= 3 else np.zeros(0, np.int64)
        candidates = np.setdiff1d(exclusive[epoch % 3], refill)
        removed.append(np.sort(rng.choice(candidates, holes, replace=False)))
        deltas.append(TensorDelta(tensor.shape, refill, removed[-1]))
    return tensor, deltas


def _drain_cells(session):
    """The pair with the least slack among those whose support rectangle
    holds any cell, as ``(mode, row, column)``, and ``slack // 2 + 1``
    cells of that rectangle in its row that the row's other components
    cover: toggling them charges the pair past its slack but leaves its
    ``d`` where it was."""
    dense = [
        factor.to_dense().astype(bool)
        for factor in session.history[-1].result.factors
    ]
    pairs = []
    for mode, certificates in enumerate(session._unfoldings.certificates):
        target, outer, inner = (dense[i] for i in MODE_FACTOR_ROLES[mode])
        live = outer.any(axis=0) & inner.any(axis=0)
        slack = np.where(live, certificates.slack, np.iinfo(np.int64).max)
        row, column = np.unravel_index(slack.argmin(), slack.shape)
        pairs.append((int(slack[row, column]), mode, int(row), int(column)))
    slack, mode, row, column = min(pairs)
    target, outer, inner = (dense[i] for i in MODE_FACTOR_ROLES[mode])
    others = target[row] & (np.arange(target.shape[1]) != column)
    covered = (outer[:, None, others] & inner[None, :, others]).any(axis=2)
    blocks, offsets = np.nonzero(
        covered & outer[:, None, column] & inner[None, :, column]
    )
    assert 0 <= slack and blocks.size > slack // 2
    cells = np.zeros((slack // 2 + 1, 3), dtype=np.int64)
    row_axis, block_axis, offset_axis = _mode_axes(mode)
    cells[:, row_axis] = row
    cells[:, block_axis] = blocks[: len(cells)]
    cells[:, offset_axis] = offsets[: len(cells)]
    return mode, row, column, cells


def test_steady_state_epoch_ships_only_touched_rows(monkeypatch):
    # Slack certificates: a steady-state hole-punch epoch ships no row, and
    # a delta ships exactly the rows whose pairs it charges past their
    # slack — one cell more than the slack allows, not one cell fewer.
    tensor, deltas = _hole_punch_stream(seed=1)
    config = DbtfConfig(rank=4, n_partitions=4, seed=0)
    rounds = []
    original = update._ColumnRoundTask.__init__

    def spied(self, factors, pending, *args):
        rounds.append(None if pending is None else pending.value[0].tolist())
        original(self, factors, pending, *args)

    with FactorizationSession(tensor, config) as session:
        session.factorize()
        for delta in deltas[:-1]:
            session.advance(delta)
        monkeypatch.setattr(update._ColumnRoundTask, "__init__", spied)
        modes = []
        real = decompose.update_factor

        def tagged(data_rdd, *args, **options):
            mode = [rdd.node for rdd in session._unfoldings.rdds].index(
                data_rdd.node
            )
            start = len(rounds)
            result = real(data_rdd, *args, **options)
            modes.append((mode, rounds[start:]))
            return result

        monkeypatch.setattr(decompose, "update_factor", tagged)

        def shipped(delta):
            warm = session.history[-1].result.factors
            modes.clear()
            epoch = session.advance(delta)
            # Nothing moved, and every mode was updated.
            assert all(
                np.array_equal(a.words, b.words)
                for a, b in zip(epoch.result.factors, warm)
            )
            assert {mode for mode, _ in modes} == {0, 1, 2}
            return [(mode, rows) for mode, rows in modes if rows]

        assert shipped(deltas[-1]) == []
        mode, row, _, cells = _drain_cells(session)
        assert shipped(_toggle(session.tensor, cells[:-1])) == []
        last = _toggle(session.tensor, cells[-1:])
        assert shipped(last) == [(mode, [[row]])]


def _exact_slack(session, mode, row):
    """Row ``row``'s slack per column at the session's factors and tensor,
    recounted by brute force: ``d`` for a 0-bit, ``-d - 1`` for a 1-bit."""
    dense = [
        factor.to_dense().astype(bool)
        for factor in session.history[-1].result.factors
    ]
    target, outer, inner = (dense[i] for i in MODE_FACTOR_ROLES[mode])
    x = unfolded(session.tensor.to_dense(), mode)[row]
    cells = basis(outer, inner)
    bits = target[row]
    slack = []
    for column in range(bits.size):
        errors = []
        for value in (False, True):
            trial = bits.copy()
            trial[column] = value
            errors.append(int((cells[trial].any(axis=0) ^ x).sum()))
        d = errors[1] - errors[0]
        slack.append(-d - 1 if bits[column] else d)
    return np.array(slack)


def test_reevaluated_held_pairs_get_their_exact_slack():
    # Draining one pair ships its row from that pair's column on, so the
    # kernel re-evaluates the row's later pairs too, certified or not.
    # Each of them is issued the slack just computed, not its charged-down
    # one; pairs before the drained column carry theirs.
    tensor, deltas = _hole_punch_stream(seed=1)
    config = DbtfConfig(rank=4, n_partitions=4, seed=0)
    with FactorizationSession(tensor, config) as session:
        session.factorize()
        for delta in deltas:
            session.advance(delta)
        mode, row, column, cells = _drain_cells(session)
        certificates = session._unfoldings.certificates[mode]
        before = certificates.slack[row].copy()
        warm = session.history[-1].result.factors
        dense = [factor.to_dense().astype(bool) for factor in warm]
        _, outer, inner = (dense[i] for i in MODE_FACTOR_ROLES[mode])
        _, block_axis, offset_axis = _mode_axes(mode)
        charged = before - 2 * (
            outer[cells[:, block_axis]] & inner[cells[:, offset_axis]]
        ).sum(axis=0)
        epoch = session.advance(_toggle(session.tensor, cells))
        assert all(
            np.array_equal(a.words, b.words)
            for a, b in zip(epoch.result.factors, warm)
        )
        after = certificates.slack[row]
        later = np.arange(after.size) > column
        assert later.any() and (before[later] >= 0).all()
        exact = _exact_slack(session, mode, row)
        np.testing.assert_array_equal(after[column:], exact[column:])
        np.testing.assert_array_equal(after[:column], charged[:column])
        # The re-evaluated held pairs did not merely keep their charges.
        assert (charged[later] != exact[later]).any()


class TestCertificateRules:
    def _factors(self, seed, shape=(6, 5, 4), rank=3):
        rng = np.random.default_rng(seed)
        return shape, [
            BitMatrix.from_dense(rng.random((n, rank)) < 0.5)
            for n in shape
        ]

    def test_valid_drops_changed_rows_and_changed_fixed_factors(self):
        _, (target, outer, inner) = self._factors(0)
        certificates = DecisionCertificates()
        slack = np.arange(target.n_rows * 3).reshape(-1, 3)
        certificates.issue(slack, target, outer, inner)
        np.testing.assert_array_equal(
            certificates.valid(target, outer, inner), slack
        )
        moved = target.copy()
        moved.words[2] ^= np.uint64(1)
        valid = certificates.valid(moved, outer, inner)
        assert (valid[2] == -1).all()
        np.testing.assert_array_equal(
            valid[np.arange(6) != 2], slack[np.arange(6) != 2]
        )
        other = outer.copy()
        other.words[0] ^= np.uint64(1)
        assert (certificates.valid(target, other, inner) == -1).all()
        assert (DecisionCertificates().valid(target, outer, inner) == -1).all()

    def test_clear_cells_clears_pairs_whose_rectangle_holds_the_cell(self):
        # Each cell charges 2 to every pair of its row whose rectangle holds
        # it; a pair is cleared once the charges exceed its slack.
        _, (target, outer, inner) = self._factors(1)
        certificates = DecisionCertificates()
        certificates.issue(
            np.full((target.n_rows, 3), 3), target, outer, inner
        )
        blocks, offsets = np.array([0, 3, 1]), np.array([1, 2, 3])
        certificates.charge_cells(np.full(3, 4), blocks, offsets)
        dense_outer, dense_inner = outer.to_dense(), inner.to_dense()
        held = (dense_outer[blocks] & dense_inner[offsets]).sum(axis=0)
        np.testing.assert_array_equal(held, [2, 1, 0])
        np.testing.assert_array_equal(certificates.slack[4], [-1, 1, 3])
        assert (certificates.slack[np.arange(6) != 4] == 3).all()
        valid = certificates.valid(target, outer, inner)
        np.testing.assert_array_equal(valid[4] >= 0, [False, True, True])

    def test_tucker_core_rejects_certificates(self):
        shape, factors = self._factors(2)
        tensor = SparseBoolTensor.empty(shape)
        with SimulatedRuntime(_cluster("serial")) as runtime:
            live = PartitionedUnfoldings.prepare(tensor, 2, runtime)
            with pytest.raises(ValueError, match="CP"):
                update_factor(
                    live.rdds[0], *factors, DbtfConfig(rank=3), runtime,
                    core=np.ones((3, 3, 3), dtype=np.uint8),
                    certificates=DecisionCertificates(),
                )
            live.unpersist()
