"""Unit tests for the distributed factor update (Algorithm 4)."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, prepare_partitioned_unfoldings, update_factor
from repro.core import update as update_module
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import (
    MODE_FACTOR_ROLES,
    SparseBoolTensor,
    random_factors,
    reconstruct_dense,
    tensor_from_factors,
)


def brute_force_error(factors, dense):
    return int((reconstruct_dense(factors) != dense).sum())


def setup_problem(shape, rank, seed, density=0.4, n_partitions=3):
    rng = np.random.default_rng(seed)
    factors = random_factors(shape, rank, density, rng)
    tensor = tensor_from_factors(factors)
    runtime = SimulatedRuntime()
    rdds = prepare_partitioned_unfoldings(tensor, n_partitions, runtime)
    config = DbtfConfig(rank=rank, n_partitions=n_partitions)
    return tensor, factors, rdds, config, runtime


class TestUpdateFactorExactness:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_true_factors_reach_zero_error(self, mode):
        tensor, factors, rdds, config, runtime = setup_problem((5, 6, 7), 3, seed=mode)
        target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
        updated, error = update_factor(
            rdds[mode],
            factors[target_index],
            factors[outer_index],
            factors[inner_index],
            config,
            runtime,
        )
        assert error == 0
        current = list(factors)
        current[target_index] = updated
        assert brute_force_error(tuple(current), tensor.to_dense()) == 0

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reported_error_matches_brute_force(self, mode, seed):
        tensor, factors, rdds, config, runtime = setup_problem((4, 5, 6), 3, seed=seed)
        rng = np.random.default_rng(100 + seed)
        start = list(random_factors((4, 5, 6), 3, 0.5, rng))
        target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
        updated, error = update_factor(
            rdds[mode],
            start[target_index],
            start[outer_index],
            start[inner_index],
            config,
            runtime,
        )
        start[target_index] = updated
        assert error == brute_force_error(tuple(start), tensor.to_dense())

    def test_update_never_increases_error(self):
        tensor, _, rdds, config, runtime = setup_problem((6, 6, 6), 4, seed=9)
        rng = np.random.default_rng(10)
        start = random_factors((6, 6, 6), 4, 0.5, rng)
        before = brute_force_error(start, tensor.to_dense())
        updated, after = update_factor(
            rdds[0], start[0], start[2], start[1], config, runtime
        )
        assert after <= before

    def test_update_is_greedy_optimal_per_row(self):
        # With rank 1 there is a single column; each row's choice must be
        # the true argmin over {0, 1}.
        tensor, _, rdds, config, runtime = setup_problem((4, 4, 4), 1, seed=5)
        rng = np.random.default_rng(6)
        start = list(random_factors((4, 4, 4), 1, 0.5, rng))
        updated, _ = update_factor(
            rdds[0], start[0], start[2], start[1], config, runtime
        )
        dense = tensor.to_dense()
        for i in range(4):
            errors = {}
            for value in (0, 1):
                candidate = updated.copy()
                candidate.set(i, 0, value)
                errors[value] = brute_force_error(
                    (candidate, start[1], start[2]), dense
                )
            assert errors[updated.get(i, 0)] == min(errors.values())

    def test_ties_prefer_zero(self):
        # An all-zero tensor: covering anything strictly hurts unless the
        # component covers nothing; either way zero must be chosen.
        from repro.tensor import SparseBoolTensor

        tensor = SparseBoolTensor.empty((3, 3, 3))
        runtime = SimulatedRuntime()
        rdds = prepare_partitioned_unfoldings(tensor, 2, runtime)
        config = DbtfConfig(rank=2, n_partitions=2)
        rng = np.random.default_rng(0)
        start = random_factors((3, 3, 3), 2, 0.8, rng)
        updated, error = update_factor(
            rdds[0], start[0], start[2], start[1], config, runtime
        )
        assert error == 0
        assert updated.count_nonzeros() == 0

    def test_rank_mismatch_rejected(self):
        tensor, factors, rdds, config, runtime = setup_problem((4, 4, 4), 2, seed=1)
        wrong = BitMatrix.zeros(4, 5)
        with pytest.raises(ValueError):
            update_factor(rdds[0], wrong, factors[2], factors[1], config, runtime)


class TestUpdateFactorWithGroupedCache:
    def test_small_v_matches_large_v(self):
        # The V split is an implementation detail: results must be identical.
        tensor, factors, rdds, _, runtime = setup_problem((5, 5, 5), 6, seed=3)
        rng = np.random.default_rng(4)
        start = random_factors((5, 5, 5), 6, 0.5, rng)
        results = []
        for group_size in (2, 3, 15):
            config = DbtfConfig(rank=6, n_partitions=3, cache_group_size=group_size)
            updated, error = update_factor(
                rdds[0], start[0], start[2], start[1], config, runtime
            )
            results.append((updated, error))
        for updated, error in results[1:]:
            assert updated == results[0][0]
            assert error == results[0][1]


class TestUpdateFactorPartitionInvariance:
    @given(st.integers(1, 10), st.integers(0, 99))
    @settings(max_examples=15, deadline=None)
    def test_partition_count_does_not_change_result(self, n_partitions, seed):
        rng = np.random.default_rng(seed)
        factors = random_factors((5, 6, 4), 3, 0.4, rng)
        tensor = tensor_from_factors(factors)
        start = random_factors((5, 6, 4), 3, 0.5, np.random.default_rng(seed + 1))

        def run(parts):
            runtime = SimulatedRuntime()
            rdds = prepare_partitioned_unfoldings(tensor, parts, runtime)
            config = DbtfConfig(rank=3, n_partitions=parts)
            return update_factor(
                rdds[0], start[0], start[2], start[1], config, runtime
            )

        baseline_factor, baseline_error = run(1)
        updated, error = run(n_partitions)
        assert updated == baseline_factor
        assert error == baseline_error


@contextmanager
def _recorded_column_choices():
    """Spy on the driver's per-round confirmation: each round's error move
    per column.  :func:`_column_records` turns them into one (chosen,
    error) per column."""
    original = update_module._confirm
    moves = []

    def spy(*args):
        limit, flips, moved = original(*args)
        moves.append(moved.copy())
        return limit, flips, moved

    with mock.patch.object(update_module, "_confirm", spy):
        yield moves


def _column_records(updated, error_after, moves):
    """Each column's final bits and the carried error after it.

    A row's bit in column c is decided once, so its final value is the
    sweep's choice at c, and summing the rounds' per-column moves gives the
    error after each column: the last one is ``error_after``.
    """
    moved = np.sum(moves, axis=0)
    errors = error_after - moved.sum() + np.cumsum(moved)
    return [
        (updated.column(column), int(errors[column]))
        for column in range(updated.n_cols)
    ]


def _row_errors(factors, dense, axis):
    """Per-slice error along ``axis`` of the dense reconstruction."""
    wrong = reconstruct_dense(factors) != dense
    others = tuple(a for a in range(3) if a != axis)
    return wrong.sum(axis=others)


def _check_against_oracle(tensor, start, mode, records, dirty, rank):
    """Replay the recorded columns against a dense brute-force recount.

    Walks the columns in sweep order, applying the skip/escalate rule of
    ``update_factor`` for the ``dirty`` path, and after each evaluated
    column checks every row's bit against the argmin of the two candidates
    (ties keep 0) and the carried error against a full recount; a skipped
    column must keep its bits and the error.  Returns the final state and
    whether the sweep escalated.
    """
    dense = tensor.to_dense()
    target_index = MODE_FACTOR_ROLES[mode][0]
    state = list(start)
    escalated = False
    error_before = None
    for column in range(rank):
        chosen, error = records[column]
        if dirty is not None and not (escalated or column in dirty):
            np.testing.assert_array_equal(
                chosen, state[target_index].column(column)
            )
            assert error == error_before or error_before is None
            error_before = error
            continue
        errors = []
        for value in (0, 1):
            candidate = state[target_index].copy()
            candidate.set_column(column, np.full(candidate.n_rows, value))
            trial = list(state)
            trial[target_index] = candidate
            errors.append(_row_errors(tuple(trial), dense, target_index))
        expected = (errors[1] < errors[0]).astype(np.uint8)
        np.testing.assert_array_equal(chosen, expected)
        if not np.array_equal(chosen, state[target_index].column(column)):
            escalated = True
        updated = state[target_index].copy()
        updated.set_column(column, chosen)
        state[target_index] = updated
        assert error == brute_force_error(tuple(state), dense)
        error_before = error
    return state, escalated


def _noisy_problem(shape, rank, seed):
    """A random low-rank tensor with cells flipped, plus a random start."""
    rng = np.random.default_rng(seed)
    dense = reconstruct_dense(random_factors(shape, rank, 0.4, rng))
    dense = dense ^ (rng.random(shape) < 0.15)
    tensor = SparseBoolTensor.from_dense(dense.astype(np.uint8))
    start = random_factors(shape, rank, 0.4, rng)
    return tensor, start


_ORACLE_CASES = st.tuples(
    st.tuples(st.integers(3, 7), st.integers(3, 7), st.integers(3, 7)),
    st.integers(2, 6),
    st.integers(2, 7),
    st.integers(0, 2),
    st.integers(0, 10_000),
    st.data(),
)


class TestUpdateFactorPerColumnOracle:
    """Every column's decision and carried error, at rank > 1 and V < R.

    Only round 1's first column scans every block; every other pair scans
    its active blocks and the error is carried forward, so each
    intermediate error — per column, summed over the rounds — is checked,
    not just the last one.
    """

    def _run(self, backend, case, dirty_sets=None):
        shape, rank, n_partitions, mode, seed, data = case
        group_size = data.draw(st.integers(1, rank - 1), label="group_size")
        tensor, start = _noisy_problem(shape, rank, seed)
        dirty = None if dirty_sets is None else data.draw(
            dirty_sets(rank), label="dirty"
        )
        runtime = SimulatedRuntime(
            ClusterConfig(
                backend=backend, n_workers=2 if backend == "process" else None
            )
        )
        try:
            rdds = prepare_partitioned_unfoldings(tensor, n_partitions, runtime)
            config = DbtfConfig(
                rank=rank, n_partitions=n_partitions, cache_group_size=group_size
            )
            target_index, outer_index, inner_index = MODE_FACTOR_ROLES[mode]
            with _recorded_column_choices() as moves:
                result = update_factor(
                    rdds[mode],
                    start[target_index],
                    start[outer_index],
                    start[inner_index],
                    config,
                    runtime,
                    **({} if dirty is None else {"dirty_columns": dirty}),
                )
        finally:
            runtime.close()
        records = _column_records(result[0], result[1], moves)
        state, escalated = _check_against_oracle(
            tensor, start, mode, records, dirty, rank
        )
        assert result[0] == state[target_index]
        assert result[1] == records[-1][1]
        return escalated

    @given(_ORACLE_CASES)
    @settings(max_examples=40, deadline=None)
    def test_batch_path_serial(self, case):
        self._run("serial", case)

    @given(_ORACLE_CASES)
    @settings(max_examples=6, deadline=None)
    def test_batch_path_process(self, case):
        self._run("process", case)

    @staticmethod
    def _dirty_sets(rank):
        # Column 0 clean, so the first evaluated column is a later one.
        return st.sets(st.integers(1, rank - 1), min_size=1)

    @given(_ORACLE_CASES)
    @settings(max_examples=30, deadline=None)
    def test_dirty_path_that_escalates_serial(self, case):
        assume(self._run("serial", case, self._dirty_sets))

    @given(_ORACLE_CASES)
    @settings(max_examples=5, deadline=None)
    def test_dirty_path_that_escalates_process(self, case):
        assume(self._run("process", case, self._dirty_sets))
