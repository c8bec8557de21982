"""Seeding the carried error of the column sweeps.

A round task evaluates each (row, column) pair over its column's active
PVM blocks only, and the driver carries the exact reconstruction error
forward by each accepted decision's error change.  The
error it starts from comes from the caller — the previous update's
``error_after`` in a solve, a session's baseline across epochs — and only
an update whose caller does not know it scans every block to seed it.
Seeding must stay invisible: a known ``error_before`` gives the same
factors and errors as a seed scan, on every backend, including partitions
whose edges cut PVM blocks.
"""

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, dbtf, decompose, update_factor
from repro.core.decompose import dbtf_steps
from repro.core.incremental import prepare_mode_partitions
from repro.core.steps import drive
from repro.core import update as update_module
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.incremental import FactorizationSession
from repro.metrics import reconstruction_error
from repro.tensor import MODE_FACTOR_ROLES, TensorDelta, planted_tensor

from .sweep_oracle import basis, predicted_rounds, sweep, unfolded

#: 5 partitions over every mode's unfolding of a 12 x 13 x 14 tensor cut
#: PVM blocks at partition boundaries.
SHAPE = (12, 13, 14)
PARTITIONS = 5
RANK = 5
GROUP_SIZE = 3

BACKENDS = [("serial", None), ("process", 2)]


@pytest.fixture(scope="module")
def tensor():
    return planted_tensor(
        SHAPE, rank=3, factor_density=0.3, rng=np.random.default_rng(11),
        additive_noise=0.05,
    )[0]


@pytest.fixture(scope="module")
def start():
    rng = np.random.default_rng(4)
    return tuple(BitMatrix.random(dim, RANK, 0.4, rng) for dim in SHAPE)


def _config(**overrides):
    return DbtfConfig(
        rank=RANK, n_partitions=PARTITIONS, cache_group_size=GROUP_SIZE,
        **overrides,
    )


@pytest.fixture
def full_scans(monkeypatch):
    """Counts partition evaluations that scan every block (serial only)."""
    calls = []
    evaluate = update_module.column_errors

    def counting(*args, seed=False):
        calls.append(seed)
        return evaluate(*args, seed=seed)

    monkeypatch.setattr(update_module, "column_errors", counting)
    return calls


class TestKnownErrorMatchesSeedScan:
    @pytest.mark.parametrize("backend, workers", BACKENDS)
    def test_every_mode_and_path(self, tensor, start, backend, workers):
        exact = reconstruction_error(tensor, start)
        runtime = SimulatedRuntime(
            ClusterConfig(backend=backend, n_workers=workers)
        )
        try:
            for mode in range(3):
                rdd, plans = prepare_mode_partitions(
                    tensor, mode, PARTITIONS, runtime
                )
                rdd = rdd.persist()
                assert any(
                    not block.is_full for plan in plans for block in plan.blocks
                )
                target, outer, inner = (
                    start[index] for index in MODE_FACTOR_ROLES[mode]
                )
                for dirty in (None, {1, 3}, set()):
                    extra = {} if dirty is None else {"dirty_columns": dirty}
                    seeded = update_factor(
                        rdd, target, outer, inner, _config(), runtime, **extra
                    )
                    known = update_factor(
                        rdd, target, outer, inner, _config(), runtime,
                        error_before=exact, **extra,
                    )
                    assert known[0] == seeded[0]
                    assert known[2:] == seeded[2:]
                    if dirty == set():
                        assert seeded[1] is None and known[1] == exact
                    else:
                        assert known[1] == seeded[1]
                        factors = list(start)
                        factors[MODE_FACTOR_ROLES[mode][0]] = known[0]
                        assert known[1] == reconstruction_error(
                            tensor, tuple(factors)
                        )
                rdd.unpersist()
        finally:
            runtime.close()


class TestFullScanCount:
    @pytest.mark.parametrize("n_initial_sets", [1, 2])
    def test_batch_solve_seeds_once_per_initial_set(
        self, tensor, full_scans, n_initial_sets, monkeypatch
    ):
        rounds = []
        update = decompose.update_factor
        dense = tensor.to_dense()

        def counting(rdd, target, outer, inner, config, runtime, **options):
            _, _, swept, changes = sweep(
                unfolded(dense, len(rounds) % 3), target.to_dense(),
                basis(outer.to_dense(), inner.to_dense()),
            )
            rounds.append(predicted_rounds(swept, set(swept), changes))
            return update(rdd, target, outer, inner, config, runtime, **options)

        monkeypatch.setattr(decompose, "update_factor", counting)
        result = dbtf(tensor, config=_config(
            max_iterations=4, seed=2, n_initial_sets=n_initial_sets,
        ))
        later_iterations = len(result.errors_per_iteration) - 1
        assert later_iterations >= 1
        # Every evaluation of one seeding round is one partition's scan.
        assert sum(full_scans) == n_initial_sets * PARTITIONS
        # One sweep per initial set, then one per later iteration, each
        # update in as many rounds as its sequential sweep predicts.
        sweeps = n_initial_sets + later_iterations
        assert len(rounds) == sweeps * 3
        assert len(full_scans) == sum(rounds) * PARTITIONS

    def test_session_epoch_with_baseline_makes_none(self, tensor, full_scans):
        # The delta toggles every cell of mode-0 slice 0.  A pair's slack is
        # below its support rectangle's size and each cell charges 2, so
        # every certificate of row 0 with a nonempty rectangle falls and
        # the epoch evaluates that row.
        present = np.ravel_multi_index(tensor.coords.T, tensor.shape)
        toggled = np.arange(np.prod(SHAPE[1:]))
        added = np.isin(toggled, present, invert=True)
        delta = TensorDelta(
            tensor.shape, toggled[added], toggled[~added]
        )
        with FactorizationSession(
            tensor, _config(seed=0, max_iterations=3)
        ) as session:
            session.factorize()
            full_scans.clear()
            epoch = session.advance(delta)
        assert epoch.columns_swept > 0
        assert full_scans and not any(full_scans)
        assert epoch.result.error == reconstruction_error(
            session.tensor, epoch.result.factors
        )

    @pytest.mark.parametrize("baseline", [False, True])
    def test_warm_start_seeds_only_without_baseline(
        self, tensor, full_scans, baseline
    ):
        config = _config(seed=1, max_iterations=2)
        warm = dbtf(tensor, config=config).state
        with SimulatedRuntime(config.cluster) as runtime:
            full_scans.clear()
            result = drive(dbtf_steps(
                tensor, config, runtime, warm_start=warm,
                baseline_error=warm["errors"][-1] if baseline else None,
            ))
        assert len(result.errors_per_iteration) == 2
        assert sum(full_scans) == (0 if baseline else PARTITIONS)
        assert result.error == reconstruction_error(tensor, result.factors)
