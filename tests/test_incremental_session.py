"""FactorizationSession: epoch streams, warm starts, checkpoints, pruning."""

import numpy as np
import pytest

from repro import DbtfConfig, FactorizationSession, dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.resilience import CheckpointConfig
from repro.tensor import SparseBoolTensor, TensorDelta, planted_tensor

SHAPE = (10, 9, 8)


def _config(backend="serial", **overrides):
    options = dict(
        rank=3,
        seed=0,
        max_iterations=6,
        n_partitions=2,
        cluster=ClusterConfig(
            n_machines=2, cores_per_machine=2, backend=backend
        ),
    )
    options.update(overrides)
    return DbtfConfig(**options)


def _tensor(seed=0, shape=SHAPE, density=0.2):
    rng = np.random.default_rng(seed)
    return SparseBoolTensor.from_dense(
        (rng.random(shape) < density).astype(np.uint8)
    )


def _delta_stream(tensor, n_epochs, seed=1, n_changes=4):
    """Random deltas, each valid against the previous epoch's tensor."""
    rng = np.random.default_rng(seed)
    deltas = []
    current = tensor
    for _ in range(n_epochs):
        coords = current.coords
        n_removes = min(n_changes // 2, len(coords))
        removed = coords[
            rng.choice(len(coords), size=n_removes, replace=False)
        ]
        present = {tuple(int(x) for x in cell) for cell in coords}
        added = []
        while len(added) < n_changes - n_removes:
            cell = tuple(
                int(rng.integers(0, dim)) for dim in current.shape
            )
            if cell not in present:
                present.add(cell)
                added.append(cell)
        delta = TensorDelta.from_coords(
            current.shape, np.array(added, dtype=np.int64), removed
        )
        deltas.append(delta)
        current = current.apply_delta(delta)
    return deltas


def _words(result):
    return tuple(factor.words.tobytes() for factor in result.factors)


class TestEpochStream:
    def test_epoch_zero_matches_batch_dbtf(self):
        tensor = _tensor()
        config = _config()
        with FactorizationSession(tensor, config) as session:
            first = session.factorize()
        runtime = SimulatedRuntime(config.cluster)
        try:
            batch = dbtf(tensor, config=config, runtime=runtime)
        finally:
            runtime.close()
        assert _words(first.result) == _words(batch)
        assert first.result.errors_per_iteration == (
            batch.errors_per_iteration
        )
        assert first.epoch == 0
        assert first.n_changes == 0

    def test_advance_tracks_current_tensor(self):
        tensor = _tensor()
        deltas = _delta_stream(tensor, 3)
        with FactorizationSession(tensor, _config()) as session:
            session.factorize()
            current = tensor
            for index, delta in enumerate(deltas, start=1):
                epoch = session.advance(delta)
                current = current.apply_delta(delta)
                assert session.tensor == current
                assert epoch.epoch == index
                assert epoch.n_changes == delta.n_changes
            assert session.epoch == len(deltas)
            assert len(session.history) == len(deltas) + 1

    def test_run_equals_factorize_plus_advances(self):
        tensor = _tensor(seed=3)
        deltas = _delta_stream(tensor, 2, seed=4)
        with FactorizationSession(tensor, _config()) as a:
            a.factorize()
            stepwise = [a.advance(delta) for delta in deltas]
        with FactorizationSession(tensor, _config()) as b:
            streamed = b.run(deltas)
        assert len(streamed.epochs) == len(deltas) + 1
        for lhs, rhs in zip(stepwise, streamed.epochs[1:]):
            assert _words(lhs.result) == _words(rhs.result)
            assert lhs.error == rhs.error
        assert streamed.errors_per_epoch[-1] == stepwise[-1].error
        assert streamed.final.epoch == len(deltas)

    def test_empty_delta_converges_with_zero_stages(self):
        tensor = _tensor(seed=5)
        with FactorizationSession(tensor, _config()) as session:
            session.factorize()
            stages_before = session.runtime.metrics.value("stages_total")
            epoch = session.advance(TensorDelta.empty(tensor.shape))
            stages_after = session.runtime.metrics.value("stages_total")
        assert epoch.converged
        assert epoch.error == session.history[0].error
        assert epoch.dirty_columns == (0, 0, 0)
        assert epoch.columns_swept == 0
        assert stages_after == stages_before

    def test_quiet_stream_tracks_analytic_optimum(self):
        """Punch holes in cells exclusive to one planted component: the
        planted factors stay optimal and the optimum is the hole count."""
        from repro.bitops import packing

        rng = np.random.default_rng(7)
        tensor, factors = planted_tensor(
            (16, 16, 16), rank=5, factor_density=0.35, rng=rng
        )
        dense = [
            packing.unpack_bits(f.words, f.n_cols).reshape(
                f.n_rows, f.n_cols
            )
            for f in factors
        ]
        coords = tensor.coords
        coverage = (
            dense[0][coords[:, 0]]
            & dense[1][coords[:, 1]]
            & dense[2][coords[:, 2]]
        )
        exclusive = np.flatnonzero(
            coverage[:, 0] & (coverage.sum(axis=1) == 1)
        )
        holes = coords[exclusive[:2]]
        delta = TensorDelta.from_coords(tensor.shape, [], holes)
        config = _config(rank=5, max_iterations=8, n_partitions=3)
        with FactorizationSession(tensor, config) as session:
            first = session.factorize()
            if first.error != 0:
                pytest.skip("batch run missed the planted optimum")
            epoch = session.advance(delta)
        assert epoch.error == len(holes)
        assert epoch.converged

    def test_incremental_never_worse_than_baseline(self):
        tensor = _tensor(seed=6)
        deltas = _delta_stream(tensor, 2, seed=7)
        with FactorizationSession(tensor, _config()) as session:
            result = session.run(deltas)
        for previous, epoch in zip(result.epochs, result.epochs[1:]):
            delta = deltas[epoch.epoch - 1]
            # Warm-start guarantee: the epoch never ends above its own
            # baseline — the carried factors' error on the new tensor.
            baseline_ceiling = previous.error + delta.n_changes
            assert epoch.error <= baseline_ceiling


class TestBackendInvariance:
    def test_backends_bit_identical(self):
        tensor = _tensor(seed=8)
        deltas = _delta_stream(tensor, 2, seed=9)
        streams = {}
        for backend in ("serial", "process"):
            with FactorizationSession(
                tensor, _config(backend=backend)
            ) as session:
                streams[backend] = session.run(deltas)
        reference, other = streams["serial"], streams["process"]
        assert other.errors_per_epoch == reference.errors_per_epoch
        for lhs, rhs in zip(reference.epochs, other.epochs):
            assert _words(lhs.result) == _words(rhs.result)
            assert lhs.result.errors_per_iteration == (
                rhs.result.errors_per_iteration
            )


class TestCheckpointing:
    def test_replay_fast_forwards_bit_identically(self, tmp_path):
        tensor = _tensor(seed=10)
        deltas = _delta_stream(tensor, 2, seed=11)
        root = tmp_path / "ckpt"
        with FactorizationSession(
            tensor, _config(), checkpoint_root=root, keep_last=4
        ) as session:
            original = session.run(deltas)
        # Same stream, same root: every epoch resumes from its converged
        # snapshot instead of re-solving.
        with FactorizationSession(
            tensor, _config(), checkpoint_root=root, keep_last=4
        ) as session:
            stages_before = session.runtime.metrics.value("stages_total")
            replayed = session.run(deltas)
        assert replayed.errors_per_epoch == original.errors_per_epoch
        for lhs, rhs in zip(original.epochs, replayed.epochs):
            assert _words(lhs.result) == _words(rhs.result)

    def test_epoch_dirs_pruned_to_keep_last(self, tmp_path):
        tensor = _tensor(seed=12)
        deltas = _delta_stream(tensor, 3, seed=13)
        root = tmp_path / "ckpt"
        with FactorizationSession(
            tensor, _config(), checkpoint_root=root, keep_last=2
        ) as session:
            session.run(deltas)
        names = sorted(p.name for p in root.glob("epoch-*"))
        assert names == ["epoch-0002", "epoch-0003"]

    def test_no_checkpoint_root_writes_nothing(self, tmp_path):
        tensor = _tensor(seed=14)
        with FactorizationSession(tensor, _config()) as session:
            session.factorize()
        assert list(tmp_path.iterdir()) == []


class TestErrorPaths:
    def test_advance_before_factorize(self):
        tensor = _tensor()
        with FactorizationSession(tensor, _config()) as session:
            with pytest.raises(RuntimeError, match="factorize"):
                session.advance(TensorDelta.empty(tensor.shape))

    def test_factorize_twice(self):
        tensor = _tensor()
        with FactorizationSession(tensor, _config()) as session:
            session.factorize()
            with pytest.raises(RuntimeError, match="already ran"):
                session.factorize()

    def test_steps_needs_fresh_session(self):
        tensor = _tensor()
        with FactorizationSession(tensor, _config()) as session:
            session.factorize()
            with pytest.raises(RuntimeError, match="fresh session"):
                next(session.steps([]))

    def test_closed_session_rejected(self):
        tensor = _tensor()
        session = FactorizationSession(tensor, _config())
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.factorize()

    def test_config_checkpoint_rejected(self, tmp_path):
        tensor = _tensor()
        config = _config(
            checkpoint=CheckpointConfig(directory=tmp_path / "ckpt")
        )
        with pytest.raises(ValueError, match="checkpoint_root"):
            FactorizationSession(tensor, config)

    def test_non_three_way_tensor_rejected(self):
        matrix = SparseBoolTensor.empty((4, 4))
        with pytest.raises(ValueError, match="three-way"):
            FactorizationSession(matrix, _config())

    def test_bad_retention_args_rejected(self):
        tensor = _tensor()
        with pytest.raises(ValueError, match="keep_last"):
            FactorizationSession(tensor, _config(), keep_last=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            FactorizationSession(tensor, _config(), checkpoint_every=0)
