"""Integration tests for the DBTF driver (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dbtf, planted_tensor, random_tensor
from repro.bitops import BitMatrix
from repro.core import DbtfConfig
from repro.core.decompose import _initial_factors, _sampled_factors
from repro.distengine import (
    DEFAULT_CLUSTER,
    ClusterConfig,
    SimulatedRuntime,
    TransferKind,
)
from repro.incremental import FactorizationSession
from repro.resilience import CheckpointConfig
from repro.tensor import SparseBoolTensor


class TestDbtfBasics:
    def test_error_matches_reconstruction(self):
        rng = np.random.default_rng(0)
        tensor, _ = planted_tensor((16, 16, 16), rank=3, factor_density=0.3, rng=rng)
        result = dbtf(tensor, rank=3, seed=1, n_partitions=4)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_errors_monotone_non_increasing(self):
        rng = np.random.default_rng(1)
        tensor, _ = planted_tensor((16, 16, 16), rank=4, factor_density=0.3, rng=rng)
        result = dbtf(tensor, rank=4, seed=2, n_partitions=4)
        errors = result.errors_per_iteration
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_factor_shapes(self):
        rng = np.random.default_rng(2)
        tensor = random_tensor((8, 10, 12), density=0.05, rng=rng)
        result = dbtf(tensor, rank=3, seed=0, n_partitions=2, max_iterations=2)
        a, b, c = result.factors
        assert a.shape == (8, 3)
        assert b.shape == (10, 3)
        assert c.shape == (12, 3)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        tensor = random_tensor((10, 10, 10), density=0.1, rng=rng)
        first = dbtf(tensor, rank=3, seed=7, n_partitions=3)
        second = dbtf(tensor, rank=3, seed=7, n_partitions=3)
        assert first.factors == second.factors
        assert first.error == second.error

    def test_empty_tensor_zero_error(self):
        result = dbtf(SparseBoolTensor.empty((6, 6, 6)), rank=2, n_partitions=2)
        assert result.error == 0
        assert all(f.count_nonzeros() == 0 for f in result.factors)

    def test_relative_error(self):
        rng = np.random.default_rng(4)
        tensor = random_tensor((8, 8, 8), density=0.2, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=2)
        assert result.relative_error == pytest.approx(result.error / tensor.nnz)

    def test_non_three_way_rejected(self):
        with pytest.raises(ValueError):
            dbtf(SparseBoolTensor.empty((2, 2)), rank=1)

    def test_rank_or_config_required(self):
        with pytest.raises(ValueError):
            dbtf(SparseBoolTensor.empty((2, 2, 2)))

    def test_config_and_overrides_conflict(self):
        config = DbtfConfig(rank=2)
        with pytest.raises(ValueError):
            dbtf(SparseBoolTensor.empty((2, 2, 2)), config=config, seed=3)

    def test_rank_beyond_64_multi_word_masks(self):
        # Ranks above 64 pack row masks into two words; the whole pipeline
        # (cache keys, candidate masks, column updates) must still work.
        rng = np.random.default_rng(99)
        tensor = random_tensor((8, 8, 8), density=0.3, rng=rng)
        result = dbtf(tensor, rank=70, seed=0, n_partitions=2, max_iterations=1)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_explicit_config(self):
        rng = np.random.default_rng(5)
        tensor = random_tensor((6, 6, 6), density=0.1, rng=rng)
        config = DbtfConfig(rank=2, max_iterations=2, n_partitions=2)
        result = dbtf(tensor, config=config)
        assert result.config is config


class TestRecovery:
    def test_exact_recovery_possible_from_planted_structure(self):
        # With enough restarts DBTF should essentially recover a clean
        # low-rank tensor (small relative error).
        rng = np.random.default_rng(6)
        tensor, _ = planted_tensor((24, 24, 24), rank=4, factor_density=0.25, rng=rng)
        result = dbtf(tensor, rank=4, seed=3, n_partitions=4, n_initial_sets=6)
        assert result.relative_error < 0.25

    def test_more_initial_sets_never_hurts_much(self):
        rng = np.random.default_rng(7)
        tensor, _ = planted_tensor((16, 16, 16), rank=3, factor_density=0.3, rng=rng)
        single = dbtf(tensor, rank=3, seed=4, n_partitions=4, n_initial_sets=1)
        multi = dbtf(tensor, rank=3, seed=4, n_partitions=4, n_initial_sets=5)
        assert multi.error <= single.error

    def test_random_initialization_runs(self):
        rng = np.random.default_rng(8)
        tensor, _ = planted_tensor((12, 12, 12), rank=2, factor_density=0.4, rng=rng)
        result = dbtf(
            tensor, rank=2, seed=5, n_partitions=2, initialization="random"
        )
        # Still a valid decomposition even if quality is poor.
        assert result.error == tensor.hamming_distance(result.reconstruct())


class TestConvergence:
    def test_converges_before_max_iterations(self):
        rng = np.random.default_rng(9)
        tensor, _ = planted_tensor((12, 12, 12), rank=2, factor_density=0.4, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=50)
        assert result.converged
        assert result.n_iterations < 50

    def test_max_iterations_respected(self):
        rng = np.random.default_rng(10)
        tensor = random_tensor((8, 8, 8), density=0.2, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=1)
        assert result.n_iterations == 1

    def test_loose_tolerance_stops_earlier_or_equal(self):
        rng = np.random.default_rng(11)
        tensor, _ = planted_tensor((16, 16, 16), rank=3, factor_density=0.3, rng=rng)
        strict = dbtf(tensor, rank=3, seed=1, n_partitions=2, tolerance=0.0)
        loose = dbtf(tensor, rank=3, seed=1, n_partitions=2, tolerance=0.5)
        assert loose.n_iterations <= strict.n_iterations


class TestEngineAccounting:
    def test_unfoldings_shuffled_once(self):
        rng = np.random.default_rng(12)
        tensor = random_tensor((10, 10, 10), density=0.1, rng=rng)
        runtime = SimulatedRuntime()
        dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=2, runtime=runtime)
        shuffle_stages = [
            stage
            for stage in runtime.ledger.by_stage
            if stage.startswith("partitionUnfolding")
        ]
        assert len(shuffle_stages) == 3  # one per mode, never repeated

    def test_shuffle_volume_is_lemma6_bound(self):
        # Exactly the sparse coordinate triples move: 3 int64 per nonzero
        # per mode (Lemma 6's O(|X|)).
        rng = np.random.default_rng(15)
        tensor = random_tensor((10, 12, 8), density=0.1, rng=rng)
        runtime = SimulatedRuntime()
        dbtf(tensor, rank=2, seed=0, n_partitions=3, max_iterations=1,
             runtime=runtime)
        shuffled = runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        assert shuffled == 3 * tensor.nnz * 3 * 8

    def test_report_attached(self):
        rng = np.random.default_rng(13)
        tensor = random_tensor((8, 8, 8), density=0.1, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=1)
        assert result.report is not None
        assert result.report.simulated_time > 0
        assert result.report.shuffle_bytes > 0
        assert result.report.broadcast_bytes > 0

    def test_simulated_time_decreases_with_machines(self):
        rng = np.random.default_rng(14)
        tensor = random_tensor((16, 16, 16), density=0.1, rng=rng)
        runtime = SimulatedRuntime()
        dbtf(tensor, rank=3, seed=0, n_partitions=16, max_iterations=2, runtime=runtime)
        assert runtime.simulated_time(16) <= runtime.simulated_time(1) + 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"rank": 2, "max_iterations": 0},
            {"rank": 2, "n_initial_sets": 0},
            {"rank": 2, "n_partitions": 0},
            {"rank": 2, "cache_group_size": 0},
            {"rank": 2, "cache_group_size": 63},
            {"rank": 2, "tolerance": -0.1},
            {"rank": 2, "init_density": 0.0},
            {"rank": 2, "init_density": 1.5},
            {"rank": 2, "initialization": "magic"},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            DbtfConfig(**kwargs)

    def test_resolved_partitions_default(self):
        cluster = ClusterConfig(n_machines=2, cores_per_machine=2)
        assert DbtfConfig(rank=2).resolved_partitions(cluster) == 4

    def test_resolved_partitions_explicit(self):
        config = DbtfConfig(rank=2, n_partitions=5)
        assert config.resolved_partitions(DEFAULT_CLUSTER) == 5


class TestDefaultPartitions:
    """``n_partitions=None`` means the slots of the runtime that executes.

    ``config.cluster`` stays at ``DEFAULT_CLUSTER`` (128 slots) in these
    tests while the supplied runtime has 4, so every stage must run 4 tasks.
    """

    @staticmethod
    def _setup():
        rng = np.random.default_rng(21)
        tensor = random_tensor((16, 16, 16), density=0.1, rng=rng)
        runtime = SimulatedRuntime(ClusterConfig(n_machines=2, cores_per_machine=2))
        return tensor, runtime

    def test_dbtf_uses_runtime_slots(self):
        tensor, runtime = self._setup()
        with runtime:
            dbtf(tensor, rank=2, max_iterations=1, runtime=runtime)
            assert runtime.stages
            assert {stage.n_tasks for stage in runtime.stages} == {4}

    def test_session_uses_runtime_slots(self):
        tensor, runtime = self._setup()
        with runtime:
            with FactorizationSession(
                tensor, DbtfConfig(rank=2, max_iterations=1), runtime=runtime
            ) as session:
                session.factorize()
            assert runtime.stages
            assert {stage.n_tasks for stage in runtime.stages} == {4}

    def test_checkpoint_fingerprint_uses_runtime_slots(self, tmp_path):
        # A run that defaulted to the runtime's 4 slots is the same
        # trajectory as an explicit n_partitions=4 run, so the latter may
        # resume the former's checkpoints.
        tensor, runtime = self._setup()
        with runtime:
            first = dbtf(
                tensor, runtime=runtime, config=DbtfConfig(
                    rank=2, max_iterations=1,
                    checkpoint=CheckpointConfig(directory=str(tmp_path)),
                ),
            )
        _, runtime = self._setup()
        with runtime:
            resumed = dbtf(
                tensor, runtime=runtime, config=DbtfConfig(
                    rank=2, max_iterations=1, n_partitions=4,
                    checkpoint=CheckpointConfig(
                        directory=str(tmp_path), resume=True
                    ),
                ),
            )
        assert resumed.errors_per_iteration == first.errors_per_iteration


def _reference_sampled_factors(tensor, config, rng):
    """The fiber-seeded initialization as a direct scan of ``coords``.

    Kept as the definition ``_sampled_factors`` must reproduce bit for bit:
    every fiber is a boolean mask over all nonzeros and coverage is three
    ``np.isin`` passes, O(R * nnz) per call.
    """
    factors = tuple(BitMatrix.zeros(dim, config.rank) for dim in tensor.shape)
    coords = tensor.coords
    covered = np.zeros(tensor.nnz, dtype=bool)
    for r in range(config.rank):
        candidates = np.flatnonzero(~covered)
        if candidates.size == 0:
            candidates = np.arange(tensor.nnz)
        pick = int(candidates[rng.integers(0, candidates.size)])
        i, j, k = (int(v) for v in coords[pick])
        fibers = (
            coords[(coords[:, 1] == j) & (coords[:, 2] == k)][:, 0],
            coords[(coords[:, 0] == i) & (coords[:, 2] == k)][:, 1],
            coords[(coords[:, 0] == i) & (coords[:, 1] == j)][:, 2],
        )
        for factor, fiber in zip(factors, fibers):
            for index in fiber:
                factor.set(int(index), r, 1)
        covered |= (
            np.isin(coords[:, 0], fibers[0])
            & np.isin(coords[:, 1], fibers[1])
            & np.isin(coords[:, 2], fibers[2])
        )
    return factors


@st.composite
def _init_tensors(draw):
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    n_cells = shape[0] * shape[1] * shape[2]
    kind = draw(st.sampled_from(["random", "tiny", "block", "line"]))
    if kind == "tiny":
        # At most three nonzeros.
        flat = draw(st.sets(st.integers(0, n_cells - 1), min_size=1, max_size=3))
        coords = np.stack(np.unravel_index(sorted(flat), shape), axis=1)
        return SparseBoolTensor(shape, coords)
    if kind == "block":
        # One dense block: every nonzero shares the same three fibers, so
        # the first component covers everything and later picks fall back
        # to all nonzeros.
        dense = np.zeros(shape, dtype=np.uint8)
        dense[
            : draw(st.integers(1, shape[0])),
            : draw(st.integers(1, shape[1])),
            : draw(st.integers(1, shape[2])),
        ] = 1
        return SparseBoolTensor.from_dense(dense)
    if kind == "line":
        # Nonzeros on a few axis-parallel lines: many repeated fibers.
        dense = np.zeros(shape, dtype=np.uint8)
        for _ in range(draw(st.integers(1, 4))):
            j = draw(st.integers(0, shape[1] - 1))
            k = draw(st.integers(0, shape[2] - 1))
            dense[:, j, k] = 1
        return SparseBoolTensor.from_dense(dense)
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.02, 0.9))
    dense = np.random.default_rng(seed).random(shape) < density
    dense.flat[draw(st.integers(0, n_cells - 1))] = True
    return SparseBoolTensor.from_dense(dense.astype(np.uint8))


class TestSampledInitialization:
    @given(
        tensor=_init_tensors(),
        rank=st.integers(1, 8),
        n_sets=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference(self, tensor, rank, n_sets, seed):
        # n_sets > 1 draws every candidate set from one generator, as
        # dbtf_steps does for n_initial_sets.
        config = DbtfConfig(rank=rank, n_initial_sets=n_sets)
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        for _ in range(n_sets):
            actual = _initial_factors(tensor, config, rng)
            expected = _reference_sampled_factors(tensor, config, reference_rng)
            assert actual == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_all_covered_falls_back_to_every_nonzero(self):
        # A dense 2x2x2 block is covered by its first component; the
        # remaining picks must come from all eight nonzeros.
        dense = np.zeros((4, 4, 4), dtype=np.uint8)
        dense[:2, :2, :2] = 1
        tensor = SparseBoolTensor.from_dense(dense)
        config = DbtfConfig(rank=4)
        actual = _sampled_factors(tensor, config, np.random.default_rng(5))
        expected = _reference_sampled_factors(
            tensor, config, np.random.default_rng(5)
        )
        assert actual == expected
        for factor in actual:
            for r in range(4):
                np.testing.assert_array_equal(factor.column(r), [1, 1, 0, 0])
