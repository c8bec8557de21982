"""DBTF's round-based factor update against a brute-force sequential sweep.

``update_factor`` evaluates every column of every row speculatively in one
stage, confirms each row's decisions up to its first change, and
re-evaluates only the pending rows in later rounds (see
:mod:`repro.core.update`).  Its factors, its error and its changed
columns must equal those of Algorithm 4's column-by-column, row-by-row
sweep over the whole tensor (:mod:`tests.sweep_oracle`), and it must take
exactly as many stages as the sweep's per-row change history predicts.

The cases cover CP and Boolean Tucker, the batch and ``dirty_columns``
paths, a seeded and a carried starting error, and the serial and process
backends.  Ties are forced by zero and duplicated basis columns, and rows
that change in every column by all-ones target rows over empty tensor
rows.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, update_factor
from repro.core import update as update_module
from repro.core.incremental import prepare_mode_partitions
from repro.distengine import ClusterConfig, RuntimeFactory, SimulatedRuntime
from repro.tensor import MODE_FACTOR_ROLES, SparseBoolTensor

from .sweep_oracle import basis, error, predicted_rounds, sweep, unfolded


def _cluster(backend):
    return ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend,
        n_workers=2 if backend == "process" else None,
    )


@pytest.fixture(scope="module")
def process_factory():
    with RuntimeFactory(_cluster("process")) as factory:
        yield factory


@st.composite
def cases(draw):
    """One factor update: tensor, factors, optional core, and options."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.integers(0, 2))
    shape = [draw(st.integers(1, 6)) for _ in range(3)]
    shape[mode] = draw(st.integers(1, 9))
    target_mode, outer_mode, inner_mode = MODE_FACTOR_ROLES[mode]
    rank = draw(st.integers(1, 7))
    tucker = draw(st.booleans())
    n_outer = draw(st.integers(1, 3)) if tucker else rank
    n_inner = draw(st.integers(1, 3)) if tucker else rank
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    target = (rng.random((shape[target_mode], rank)) < density).astype(np.uint8)
    outer = (rng.random((shape[outer_mode], n_outer)) < 0.5).astype(np.uint8)
    inner = (rng.random((shape[inner_mode], n_inner)) < 0.5).astype(np.uint8)
    core = None
    if tucker:
        core = (rng.random((rank, n_inner, n_outer)) < 0.4).astype(np.uint8)
    if draw(st.booleans()):
        # Ties: a column that covers nothing, and one that covers only
        # what another column does.
        zero, copy = rng.integers(rank, size=2)
        if core is None:
            inner[:, zero] = 0
            inner[:, copy] = inner[:, zero - 1]
            outer[:, copy] = outer[:, zero - 1]
        else:
            core[zero] = 0
            core[copy] = core[zero - 1]
    x = rng.random(shape) < draw(st.sampled_from([0.1, 0.3, 0.6]))
    if draw(st.booleans()):
        # Rows that change in every column: all ones over an empty row.
        rows = rng.integers(shape[mode], size=2)
        target[rows] = 1
        np.moveaxis(x, mode, 0)[rows] = False
    dirty = None
    if draw(st.booleans()):
        dirty = {c for c in range(rank) if draw(st.booleans())}
    return dict(
        x=x, mode=mode, target=target, outer=outer, inner=inner, core=core,
        dirty=dirty, carried=draw(st.booleans()),
        n_partitions=draw(st.integers(1, shape[outer_mode] * shape[inner_mode] + 2)),
        group_size=draw(st.integers(1, 4)),
    )


def _check(case, runtime):
    """Run one update on ``runtime`` and compare it with the sweep."""
    x = unfolded(case["x"], case["mode"])
    cells = basis(case["outer"], case["inner"], case["core"])
    target = case["target"]
    want, want_error, swept, changes = sweep(x, target, cells, case["dirty"])
    error_before = error(x, target, cells) if case["carried"] else None

    tensor = SparseBoolTensor.from_dense(case["x"].astype(np.uint8))
    rank = target.shape[1]
    config = DbtfConfig(rank=rank, cache_group_size=case["group_size"])
    rdd, _ = prepare_mode_partitions(
        tensor, case["mode"], case["n_partitions"], runtime
    )
    rdd = rdd.persist()
    first = len(runtime.stages)
    result = update_factor(
        rdd,
        BitMatrix.from_dense(target),
        BitMatrix.from_dense(case["outer"]),
        BitMatrix.from_dense(case["inner"]),
        config,
        runtime,
        dirty_columns=case["dirty"],
        error_before=error_before,
        core=case["core"],
    )
    stages = [stage.name for stage in runtime.stages[first:]]
    rdd.unpersist()

    updated, error_after = result[:2]
    np.testing.assert_array_equal(updated.to_dense(), want)
    if case["dirty"] is not None and not swept:
        assert error_after == error_before
    else:
        assert error_after == want_error
    if case["dirty"] is not None:
        assert result[2] == set(np.flatnonzero(changes.any(axis=0)).tolist())
    first_round = set(range(rank)) if case["dirty"] is None else case["dirty"]
    assert all("columnErrors" in name for name in stages)
    assert len(stages) == predicted_rounds(swept, first_round, changes)
    return len(swept)


@settings(max_examples=250, deadline=None)
@given(case=cases(), chunk_words=st.sampled_from([1, 7, 64, None]))
def test_serial_matches_sequential_sweep(case, chunk_words):
    # Small kernel chunks split pairs, columns and the seeded column's
    # triples across chunks.
    chunk = update_module._CHUNK_WORDS if chunk_words is None else chunk_words
    with mock.patch.object(update_module, "_CHUNK_WORDS", chunk), \
            SimulatedRuntime(_cluster("serial")) as runtime:
        n_swept = _check(case, runtime)
        if case["dirty"] is not None:
            metrics = runtime.metrics
            rank = case["target"].shape[1]
            assert metrics.value("incremental_columns_swept_total") == n_swept
            assert metrics.value("incremental_columns_skipped_total") == (
                rank - n_swept
            )


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases())
def test_process_matches_sequential_sweep(case, process_factory):
    lease = process_factory.lease()
    try:
        _check(case, lease.runtime)
    finally:
        lease.close()


def _many_changes_case(**options):
    """A fixed update with ties and rows that change in 3+ columns."""
    rng = np.random.default_rng(5)
    x = rng.random((6, 5, 4)) < 0.3
    x[2] = x[4] = False
    target = (rng.random((6, 5)) < 0.5).astype(np.uint8)
    target[[2, 4]] = 1
    outer = (rng.random((4, 5)) < 0.5).astype(np.uint8)
    inner = (rng.random((5, 5)) < 0.5).astype(np.uint8)
    inner[:, 1] = 0  # column 1 ties everywhere
    return dict(
        x=x, mode=0, target=target, outer=outer, inner=inner, core=None,
        n_partitions=3, group_size=2, **options,
    )


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("dirty", [None, {1, 3}])
def test_rows_changing_in_many_columns(backend, carried, dirty, process_factory):
    case = _many_changes_case(carried=carried, dirty=dirty)
    x = unfolded(case["x"], 0)
    cells = basis(case["outer"], case["inner"])
    _, _, swept, changes = sweep(x, case["target"], cells, dirty)
    # The case forces what it is for: rows that change in three or more
    # columns before the last swept one, so the update needs 3+ rounds.
    assert changes[:, swept[:-1]].sum(axis=1).max() >= 3
    if backend == "serial":
        with SimulatedRuntime(_cluster("serial")) as runtime:
            _check(case, runtime)
    else:
        lease = process_factory.lease()
        try:
            _check(case, lease.runtime)
        finally:
            lease.close()
