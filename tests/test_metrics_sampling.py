"""Unit tests for sampling-based error estimation."""

import numpy as np
import pytest

from repro.metrics import estimate_reconstruction_error, reconstruction_error
from repro.tensor import planted_tensor, random_factors, random_tensor


class TestEstimateReconstructionError:
    def test_zero_error_estimated_as_zero(self):
        rng = np.random.default_rng(0)
        tensor, factors = planted_tensor((10, 10, 10), rank=2, factor_density=0.4,
                                         rng=rng)
        estimate = estimate_reconstruction_error(tensor, factors, 500, rng)
        assert estimate.estimate == 0.0
        assert estimate.disagreements == 0

    def test_estimate_close_to_exact(self):
        rng = np.random.default_rng(1)
        tensor = random_tensor((12, 12, 12), 0.15, rng)
        factors = random_factors((12, 12, 12), 3, 0.3, rng)
        exact = reconstruction_error(tensor, factors)
        estimate = estimate_reconstruction_error(tensor, factors, 20000, rng)
        margin = 4.0 * estimate.std_error
        assert estimate.estimate - margin <= exact <= estimate.estimate + margin

    def test_std_error_shrinks_with_samples(self):
        rng = np.random.default_rng(2)
        tensor = random_tensor((10, 10, 10), 0.2, rng)
        factors = random_factors((10, 10, 10), 2, 0.3, rng)
        small = estimate_reconstruction_error(tensor, factors, 200,
                                              np.random.default_rng(3))
        large = estimate_reconstruction_error(tensor, factors, 20000,
                                              np.random.default_rng(3))
        assert large.std_error < small.std_error

    def test_empty_tensor_zero_factors(self):
        from repro.tensor import SparseBoolTensor

        rng = np.random.default_rng(4)
        tensor = SparseBoolTensor.empty((5, 5, 5))
        factors = random_factors((5, 5, 5), 2, 0.0, rng)
        estimate = estimate_reconstruction_error(tensor, factors, 100, rng)
        assert estimate.estimate == 0.0

    def test_invalid_sample_count(self):
        rng = np.random.default_rng(5)
        tensor = random_tensor((4, 4, 4), 0.2, rng)
        factors = random_factors((4, 4, 4), 1, 0.5, rng)
        with pytest.raises(ValueError):
            estimate_reconstruction_error(tensor, factors, 0, rng)
