"""Extension: Boolean Tucker decomposition.

The journal extension of DBTF generalizes from CP (hyper-diagonal core) to
Tucker (arbitrary binary core).  This bench times the Tucker solver on a
planted Tucker tensor and checks the structural advantage: with a dense
core, Tucker at a small per-mode budget fits data that CP at the same
factor width cannot.
"""

import numpy as np
import pytest

from repro.core import dbtf
from repro.tensor import SparseBoolTensor
from repro.tucker import BooleanTuckerConfig, boolean_tucker
from repro.tucker.decompose import _reconstruct_dense


def planted_tucker_tensor(side, core_side, seed, core_density=1.0):
    rng = np.random.default_rng(seed)
    factors = tuple(
        (rng.random((side, core_side)) < 0.25).astype(np.uint8) for _ in range(3)
    )
    core = (rng.random((core_side,) * 3) < core_density).astype(np.uint8)
    return SparseBoolTensor.from_dense(_reconstruct_dense(core, factors))


@pytest.mark.parametrize("core_side", [2, 3])
def test_boolean_tucker(benchmark, core_side):
    tensor = planted_tucker_tensor(24, core_side, seed=0)
    result = benchmark(
        lambda: boolean_tucker(
            tensor,
            config=BooleanTuckerConfig(
                core_shape=(core_side,) * 3, n_initial_sets=2, max_iterations=5
            ),
        )
    )
    assert result.error <= tensor.nnz


def test_distributed_tucker(benchmark):
    from repro.distengine import DEFAULT_CLUSTER, SimulatedRuntime
    from repro.tucker import BooleanTuckerConfig, dbtf_tucker

    tensor = planted_tucker_tensor(24, 3, seed=2, core_density=0.5)

    def solve():
        with SimulatedRuntime(DEFAULT_CLUSTER) as runtime:
            return dbtf_tucker(
                tensor,
                config=BooleanTuckerConfig(
                    core_shape=(3, 3, 3), max_iterations=5
                ),
                n_partitions=8,
                runtime=runtime,
            )

    result = benchmark(solve)
    assert result.error <= tensor.nnz


def test_tucker_beats_matched_cp_series(benchmark):
    tensor = planted_tucker_tensor(24, 2, seed=1, core_density=1.0)

    def build():
        tucker_result = boolean_tucker(
            tensor,
            config=BooleanTuckerConfig(core_shape=(2, 2, 2), n_initial_sets=4),
        )
        cp_result = dbtf(tensor, rank=2, seed=0, n_partitions=4, n_initial_sets=4)
        return tucker_result, cp_result

    tucker_result, cp_result = benchmark.pedantic(build, rounds=1, iterations=1)
    print(f"\nTucker error: {tucker_result.error}  "
          f"CP (rank 2) error: {cp_result.error}")
    assert tucker_result.error <= cp_result.error
