"""Kill-and-resume equivalence for all three solvers.

A run killed at iteration ``k`` and resumed from its latest checkpoint must
be bit-identical to one that was never interrupted — factors, error trace,
and convergence flag — under every backend.  The kill is simulated by
raising ``KeyboardInterrupt`` immediately after the snapshot for step ``k``
hits disk, which is exactly what a real SIGINT between iterations looks
like to the on-disk state.
"""

import json
import os

import numpy as np
import pytest

from repro.core import DbtfConfig, dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.nway import NwayCpConfig, cp_nway
from repro.resilience import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointMismatchError,
)
from repro.tensor import add_additive_noise, planted_tensor
from repro.tucker import BooleanTuckerConfig, boolean_tucker

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
META_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "dbtf_checkpoint_meta.json")


def _noisy_tensor():
    """A planted tensor noisy enough that DBTF iterates several times."""
    rng = np.random.default_rng(11)
    tensor, _ = planted_tensor((10, 10, 10), rank=2, factor_density=0.3, rng=rng)
    return add_additive_noise(tensor, 0.1, rng)


def _install_kill(monkeypatch, at_step: int):
    """Make every CheckpointManager die right after saving step ``at_step``."""
    original = CheckpointManager.save

    def save_then_die(self, step, state):
        path = original(self, step, state)
        if step == at_step:
            raise KeyboardInterrupt(f"simulated kill after step {step}")
        return path

    monkeypatch.setattr(CheckpointManager, "save", save_then_die)


def _assert_same_factors(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.n_rows == e.n_rows
        assert a.n_cols == e.n_cols
        assert (a.words == e.words).all()


class TestDbtfResume:
    def _run(self, tensor, backend, checkpoint=None):
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend)
        )
        try:
            return dbtf(
                tensor,
                rank=2,
                max_iterations=6,
                n_partitions=3,
                seed=0,
                checkpoint=checkpoint,
                runtime=runtime,
            )
        finally:
            runtime.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kill_and_resume_bit_identical(
        self, tmp_path, monkeypatch, backend
    ):
        tensor = _noisy_tensor()
        baseline = self._run(tensor, backend)
        assert len(baseline.errors_per_iteration) > 2  # kill point must exist

        directory = str(tmp_path / backend)
        _install_kill(monkeypatch, at_step=1)
        with pytest.raises(KeyboardInterrupt):
            self._run(
                tensor, backend, CheckpointConfig(directory=directory)
            )
        monkeypatch.undo()

        resumed = self._run(
            tensor,
            backend,
            CheckpointConfig(directory=directory, resume=True),
        )
        assert resumed.errors_per_iteration == baseline.errors_per_iteration
        assert resumed.error == baseline.error
        assert resumed.converged == baseline.converged
        _assert_same_factors(resumed.factors, baseline.factors)

    def test_checkpointing_does_not_change_result(self, tmp_path):
        tensor = _noisy_tensor()
        baseline = self._run(tensor, "serial")
        checkpointed = self._run(
            tensor, "serial", CheckpointConfig(directory=str(tmp_path))
        )
        assert (
            checkpointed.errors_per_iteration == baseline.errors_per_iteration
        )
        _assert_same_factors(checkpointed.factors, baseline.factors)

    def test_resume_with_empty_directory_is_fresh_run(self, tmp_path):
        tensor = _noisy_tensor()
        baseline = self._run(tensor, "serial")
        resumed = self._run(
            tensor,
            "serial",
            CheckpointConfig(directory=str(tmp_path), resume=True),
        )
        assert resumed.errors_per_iteration == baseline.errors_per_iteration

    def test_mismatched_config_refuses_resume(self, tmp_path, monkeypatch):
        tensor = _noisy_tensor()
        directory = str(tmp_path)
        _install_kill(monkeypatch, at_step=1)
        with pytest.raises(KeyboardInterrupt):
            self._run(tensor, "serial", CheckpointConfig(directory=directory))
        monkeypatch.undo()
        runtime = SimulatedRuntime(ClusterConfig(backend="serial"))
        try:
            with pytest.raises(CheckpointMismatchError):
                dbtf(
                    tensor,
                    rank=3,  # different rank → different fingerprint
                    max_iterations=6,
                    n_partitions=3,
                    seed=0,
                    checkpoint=CheckpointConfig(
                        directory=directory, resume=True
                    ),
                    runtime=runtime,
                )
        finally:
            runtime.close()

    def test_larger_budget_can_resume(self, tmp_path, monkeypatch):
        # Stopping criteria are excluded from the fingerprint: extending
        # max_iterations on resume continues the same trajectory.
        tensor = _noisy_tensor()
        directory = str(tmp_path)
        _install_kill(monkeypatch, at_step=1)
        with pytest.raises(KeyboardInterrupt):
            self._run(tensor, "serial", CheckpointConfig(directory=directory))
        monkeypatch.undo()
        runtime = SimulatedRuntime(ClusterConfig(backend="serial"))
        try:
            result = dbtf(
                tensor,
                rank=2,
                max_iterations=12,
                n_partitions=3,
                seed=0,
                checkpoint=CheckpointConfig(directory=directory, resume=True),
                runtime=runtime,
            )
        finally:
            runtime.close()
        baseline = self._run(tensor, "serial")
        # The shared prefix (up to the shorter run's length) is identical.
        shared = min(
            len(result.errors_per_iteration),
            len(baseline.errors_per_iteration),
        )
        assert (
            result.errors_per_iteration[:shared]
            == baseline.errors_per_iteration[:shared]
        )


class TestNwayResume:
    def _config(self, tmp_path=None, resume=False):
        checkpoint = None
        if tmp_path is not None:
            checkpoint = CheckpointConfig(directory=str(tmp_path), resume=resume)
        return NwayCpConfig(
            rank=2,
            max_iterations=4,
            n_initial_sets=3,
            seed=0,
            checkpoint=checkpoint,
        )

    def test_kill_and_resume_bit_identical(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        tensor, _ = planted_tensor((8, 9, 10), rank=2, factor_density=0.3, rng=rng)
        baseline = cp_nway(tensor, config=self._config())

        _install_kill(monkeypatch, at_step=1)  # die after restart 1 of 3
        with pytest.raises(KeyboardInterrupt):
            cp_nway(tensor, config=self._config(tmp_path))
        monkeypatch.undo()

        resumed = cp_nway(tensor, config=self._config(tmp_path, resume=True))
        assert resumed.error == baseline.error
        assert resumed.errors_per_iteration == baseline.errors_per_iteration
        _assert_same_factors(resumed.factors, baseline.factors)


class TestTuckerResume:
    def _config(self, tmp_path=None, resume=False):
        checkpoint = None
        if tmp_path is not None:
            checkpoint = CheckpointConfig(directory=str(tmp_path), resume=resume)
        return BooleanTuckerConfig(
            core_shape=(2, 2, 2),
            max_iterations=4,
            n_initial_sets=2,
            seed=0,
            checkpoint=checkpoint,
        )

    def test_kill_and_resume_bit_identical(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        tensor, _ = planted_tensor((8, 8, 8), rank=2, factor_density=0.3, rng=rng)
        tensor = add_additive_noise(tensor, 0.1, rng)
        baseline = boolean_tucker(tensor, config=self._config())

        # Step encoding is restart * max_iterations + iteration: step 5 is
        # mid-restart-1, so resume re-enters an interrupted restart.
        _install_kill(monkeypatch, at_step=5)
        with pytest.raises(KeyboardInterrupt):
            boolean_tucker(tensor, config=self._config(tmp_path))
        monkeypatch.undo()

        resumed = boolean_tucker(
            tensor, config=self._config(tmp_path, resume=True)
        )
        assert resumed.error == baseline.error
        assert resumed.errors_per_iteration == baseline.errors_per_iteration
        _assert_same_factors(resumed.factors, baseline.factors)
        assert (
            resumed.core.to_dense() == baseline.core.to_dense()
        ).all()


class TestCheckpointMetaGolden:
    """The on-disk checkpoint layout for a fixed-seed run is a contract.

    File names, step sequence, format version, and the config fingerprint
    must stay stable; any intentional change is re-recorded with
    ``pytest --update-goldens`` (the ``*.actual.json`` lands next to the
    golden on mismatch, for CI artifact upload).
    """

    def _meta(self, tmp_path) -> str:
        tensor = _noisy_tensor()
        directory = str(tmp_path / "meta")
        config = DbtfConfig(
            rank=2,
            max_iterations=6,
            n_partitions=3,
            seed=0,
            checkpoint=CheckpointConfig(directory=directory, keep_last=100),
        )
        runtime = SimulatedRuntime(ClusterConfig(backend="serial"))
        try:
            result = dbtf(tensor, config=config, runtime=runtime)
        finally:
            runtime.close()
        manager = CheckpointManager(
            config.checkpoint,
            # Re-derive through the public resume path: load_latest would
            # raise on a fingerprint mismatch, so reading the fingerprint
            # out of a saved file keeps this test honest.
            _read_fingerprint(directory),
        )
        meta = {
            "files": sorted(
                name
                for name in os.listdir(directory)
                if name.endswith(".ckpt")
            ),
            "steps": [step for step, _ in manager.checkpoints()],
            "fingerprint": manager.fingerprint,
            "format_version": 1,
            "n_iterations": len(result.errors_per_iteration),
        }
        return json.dumps(meta, indent=1, sort_keys=True) + "\n"

    def test_meta_matches_golden(self, tmp_path, update_goldens):
        actual = self._meta(tmp_path)
        if update_goldens:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(META_GOLDEN_PATH, "w", encoding="utf-8") as handle:
                handle.write(actual)
            pytest.skip("golden updated")
        assert os.path.exists(META_GOLDEN_PATH), (
            "golden fixture missing; record it with "
            "pytest tests/test_resilience_resume.py --update-goldens"
        )
        with open(META_GOLDEN_PATH, encoding="utf-8") as handle:
            expected = handle.read()
        if actual != expected:
            actual_path = META_GOLDEN_PATH.replace(".json", ".actual.json")
            with open(actual_path, "w", encoding="utf-8") as handle:
                handle.write(actual)
            raise AssertionError(
                f"checkpoint metadata drifted from the golden fixture; "
                f"actual written to {actual_path} — if the change is "
                f"intentional, re-record with --update-goldens"
            )


def _read_fingerprint(directory: str) -> str:
    """Pull the fingerprint out of the newest checkpoint file directly."""
    import pickle

    from repro.resilience.checkpoint import _HEADER

    names = sorted(
        name for name in os.listdir(directory) if name.endswith(".ckpt")
    )
    with open(os.path.join(directory, names[-1]), "rb") as handle:
        handle.read(_HEADER.size)
        payload = pickle.loads(handle.read())
    return payload["fingerprint"]
