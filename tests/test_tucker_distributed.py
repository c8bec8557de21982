"""Tests for distributed Boolean Tucker (engine-backed factor updates)."""

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.core import update as update_module
from repro.distengine import SimulatedRuntime, TransferKind
from repro.tensor import SparseBoolTensor
from repro.tucker import BooleanTuckerConfig, boolean_tucker, dbtf_tucker
from repro.tucker import distributed
from repro.tucker.decompose import _reconstruct_dense

from .sweep_oracle import basis, predicted_rounds, sweep, unfolded


def planted_tucker(shape, core_shape, factor_density, core_density, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(
        (rng.random((dimension, rank)) < factor_density).astype(np.uint8)
        for dimension, rank in zip(shape, core_shape)
    )
    core = (rng.random(core_shape) < core_density).astype(np.uint8)
    dense = _reconstruct_dense(core, factors)
    return SparseBoolTensor.from_dense(dense)


class TestDbtfTucker:
    def test_matches_single_machine_solver(self):
        # Same greedy updates, same initialization stream: the distributed
        # and dense solvers must produce identical decompositions.
        tensor = planted_tucker((14, 12, 10), (2, 3, 2), 0.3, 0.5, seed=0)
        config = BooleanTuckerConfig(core_shape=(2, 3, 2), seed=3)
        dense_result = boolean_tucker(tensor, config=config)
        distributed_result = dbtf_tucker(tensor, config=config, n_partitions=4)
        assert distributed_result.error == dense_result.error
        assert distributed_result.factors == dense_result.factors
        assert distributed_result.core == dense_result.core

    @pytest.mark.parametrize("n_partitions", [1, 3, 7])
    def test_partition_invariance(self, n_partitions):
        tensor = planted_tucker((10, 10, 10), (2, 2, 2), 0.35, 0.5, seed=1)
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), seed=0)
        baseline = dbtf_tucker(tensor, config=config, n_partitions=1)
        other = dbtf_tucker(tensor, config=config, n_partitions=n_partitions)
        assert other.error == baseline.error
        assert other.factors == baseline.factors

    def test_group_split_invariance(self):
        tensor = planted_tucker((10, 10, 10), (4, 4, 4), 0.3, 0.4, seed=2)
        config = BooleanTuckerConfig(core_shape=(4, 4, 4), seed=0,
                                     max_iterations=2)
        full = dbtf_tucker(tensor, config=config, cache_group_size=15)
        split = dbtf_tucker(tensor, config=config, cache_group_size=2)
        assert full.error == split.error
        assert full.factors == split.factors

    def test_error_matches_reconstruction(self):
        tensor = planted_tucker((12, 12, 12), (2, 2, 2), 0.3, 0.6, seed=3)
        result = dbtf_tucker(tensor, core_shape=(2, 2, 2), n_partitions=3)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_recovers_planted_structure(self):
        tensor = planted_tucker((20, 20, 20), (3, 3, 3), 0.25, 0.4, seed=4)
        config = BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=4)
        result = dbtf_tucker(tensor, config=config, n_partitions=4)
        assert result.relative_error < 0.4

    def test_engine_accounting(self, monkeypatch):
        # Tucker's factor updates are DBTF's round stages: as many per
        # update as the sequential sweep's changes predict, and nothing
        # derived from the factors is persisted — only the three packed
        # unfoldings are.
        tensor = planted_tucker((10, 10, 10), (2, 3, 4), 0.3, 0.5, seed=5)
        runtime = SimulatedRuntime()
        persisted = []
        register = runtime.register_persist
        runtime.register_persist = lambda node: (
            persisted.append(node), register(node)
        )
        predicted = []
        update = distributed.update_factor

        def counting(rdd, target, outer, inner, config, runtime_, **options):
            mode = len(predicted) % 3
            _, _, swept, changes = sweep(
                unfolded(tensor.to_dense(), mode), target.to_dense(),
                basis(outer.to_dense(), inner.to_dense(), options["core"]),
            )
            first = len(runtime_.stages)
            result = update(rdd, target, outer, inner, config, runtime_, **options)
            predicted.append(
                (predicted_rounds(swept, set(swept), changes),
                 len(runtime_.stages) - first)
            )
            return result

        monkeypatch.setattr(distributed, "update_factor", counting)
        result = dbtf_tucker(tensor, core_shape=(2, 3, 4), n_partitions=4,
                             runtime=runtime)
        assert runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE) > 0
        assert runtime.ledger.bytes_of_kind(TransferKind.BROADCAST) > 0
        column_stages = [
            stage.name for stage in runtime.stages
            if stage.name.endswith("columnErrors")
        ]
        assert len(predicted) == 3 * result.n_iterations
        assert all(want == got for want, got in predicted)
        assert len(column_stages) == sum(got for _, got in predicted)
        assert len(column_stages) == len(runtime.stages)
        assert len(persisted) == 3
        assert all(node.parent.is_source for node in persisted)
        assert runtime.simulated_time(16) > 0

    def test_empty_tensor(self):
        result = dbtf_tucker(
            SparseBoolTensor.empty((5, 5, 5)), core_shape=(2, 2, 2),
            n_partitions=2,
        )
        assert result.error == 0

    def test_non_three_way_rejected(self):
        with pytest.raises(ValueError):
            dbtf_tucker(SparseBoolTensor.empty((2, 2)), core_shape=(1, 1, 1))

    def test_core_shape_or_config_required(self):
        with pytest.raises(ValueError):
            dbtf_tucker(SparseBoolTensor.empty((2, 2, 2)))

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            dbtf_tucker(
                SparseBoolTensor.empty((2, 2, 2)), core_shape=(1, 1, 1),
                n_partitions=0,
            )


class TestErrorCarry:
    """The exact error flows through a Tucker solve as through ``dbtf``.

    Each factor update starts from the error the step before it ended on
    — the previous update's, or the core update's across iterations — so
    only the first update of each initial set scans every block to seed
    it, and every update still returns the exact error of its factors.
    """

    def test_updates_carry_the_exact_error(self, monkeypatch):
        tensor = planted_tucker((12, 11, 10), (2, 3, 2), 0.3, 0.5, seed=6)
        config = BooleanTuckerConfig(
            core_shape=(2, 3, 2), max_iterations=3, n_initial_sets=2, seed=1
        )
        n_partitions = 4
        steps = []  # (error_before, error_after, reconstruction) per step
        seeds = []
        update = distributed.update_factor
        update_core = distributed._update_core
        evaluate = update_module.column_errors

        def recording_update(rdd, target, outer, inner, cfg, runtime, *,
                             error_before, core):
            updated, error = update(rdd, target, outer, inner, cfg, runtime,
                                    error_before=error_before, core=core)
            permutation = distributed._TUCKER_MODE_ROLES[len(steps) % 4][2]
            dense = _reconstruct_dense(
                core, (updated.to_dense(), inner.to_dense(), outer.to_dense())
            ).transpose(np.argsort(permutation))
            steps.append((error_before, error, dense))
            return updated, error

        def recording_core(dense, core, factors):
            updated, error = update_core(dense, core, factors)
            before = steps[-1][1]
            steps.append((before, error, _reconstruct_dense(updated, factors)))
            return updated, error

        def counting(*args, seed=False):
            seeds.append(seed)
            return evaluate(*args, seed=seed)

        monkeypatch.setattr(distributed, "update_factor", recording_update)
        monkeypatch.setattr(distributed, "_update_core", recording_core)
        monkeypatch.setattr(update_module, "column_errors", counting)
        dbtf_tucker(tensor, config=config, n_partitions=n_partitions)

        assert len(steps) % 4 == 0
        for index, (before, error, dense) in enumerate(steps):
            assert error == tensor.hamming_distance(
                SparseBoolTensor.from_dense(dense)
            ), index
            if before is not None:
                assert before == steps[index - 1][1], index
        # One unknown starting error, so one seed scan, per initial set.
        assert sum(before is None for before, _, _ in steps) == 2
        assert seeds.count(True) == 2 * n_partitions
        assert seeds.count(False) > 0
