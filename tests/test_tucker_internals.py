"""Unit tests for Boolean Tucker solver internals."""

import numpy as np
import pytest

from repro.tucker.decompose import (
    _coverage_slabs,
    _reconstruct_dense,
    _update_core,
    _update_factor_dense,
)


class TestCoverageSlabs:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        core = (rng.random((2, 3, 2)) < 0.5).astype(np.uint8)
        second = (rng.random((5, 3)) < 0.5).astype(np.uint8)
        third = (rng.random((4, 2)) < 0.5).astype(np.uint8)
        slabs = _coverage_slabs(core, second, third)
        assert slabs.shape == (2, 5, 4)
        for p in range(2):
            for j in range(5):
                for k in range(4):
                    expected = any(
                        core[p, q, r] and second[j, q] and third[k, r]
                        for q in range(3)
                        for r in range(2)
                    )
                    assert bool(slabs[p, j, k]) == expected

    def test_empty_core_gives_empty_slabs(self):
        core = np.zeros((2, 2, 2), dtype=np.uint8)
        second = np.ones((3, 2), dtype=np.uint8)
        third = np.ones((3, 2), dtype=np.uint8)
        assert not _coverage_slabs(core, second, third).any()


class TestUpdateFactorDense:
    def test_chooses_exact_row_argmin(self):
        rng = np.random.default_rng(1)
        core = np.ones((1, 1, 1), dtype=np.uint8)
        b = (rng.random((4, 1)) < 0.6).astype(np.uint8)
        c = (rng.random((4, 1)) < 0.6).astype(np.uint8)
        a_true = (rng.random((4, 1)) < 0.6).astype(np.uint8)
        dense = _reconstruct_dense(core, (a_true, b, c))
        slabs = _coverage_slabs(core, b, c)
        start = np.zeros((4, 1), dtype=np.uint8)
        updated, error = _update_factor_dense(
            dense.reshape(4, -1), start, slabs.reshape(1, -1)
        )
        # With the true B, C and core, the exact A is recoverable whenever
        # its covered slab is nonempty.
        if slabs.any():
            np.testing.assert_array_equal(updated, a_true)
            assert error == 0

    def test_error_is_true_reconstruction_error(self):
        rng = np.random.default_rng(2)
        core = (rng.random((2, 2, 2)) < 0.6).astype(np.uint8)
        a = (rng.random((5, 2)) < 0.5).astype(np.uint8)
        b = (rng.random((5, 2)) < 0.5).astype(np.uint8)
        c = (rng.random((5, 2)) < 0.5).astype(np.uint8)
        dense = _reconstruct_dense(core, (a, b, c))
        slabs = _coverage_slabs(core, b, c)
        start = (rng.random((5, 2)) < 0.5).astype(np.uint8)
        updated, error = _update_factor_dense(
            dense.reshape(5, -1), start, slabs.reshape(2, -1)
        )
        reconstructed = _reconstruct_dense(core, (updated, b, c))
        assert error == int((reconstructed != dense).sum())


class TestUpdateCore:
    def test_keeps_beneficial_entries(self):
        rng = np.random.default_rng(3)
        a = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        b = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        c = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        true_core = np.array(
            [[[1, 0], [0, 1]], [[0, 0], [1, 0]]], dtype=np.uint8
        )
        dense = _reconstruct_dense(true_core, (a, b, c))
        updated, error = _update_core(dense, np.zeros((2, 2, 2), np.uint8),
                                      (a, b, c))
        reconstructed = _reconstruct_dense(updated, (a, b, c))
        assert error == int((reconstructed != dense).sum())
        # Greedy from the empty core can only add beneficial entries.
        assert error <= int(dense.sum())

    def test_drops_harmful_entries(self):
        a = np.ones((4, 1), dtype=np.uint8)
        b = np.ones((4, 1), dtype=np.uint8)
        c = np.ones((4, 1), dtype=np.uint8)
        dense = np.zeros((4, 4, 4), dtype=np.uint8)  # empty tensor
        start = np.ones((1, 1, 1), dtype=np.uint8)
        updated, error = _update_core(dense, start, (a, b, c))
        assert updated.sum() == 0
        assert error == 0

    def test_exact_core_is_stable(self):
        rng = np.random.default_rng(4)
        a = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        b = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        c = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        core = (rng.random((2, 2, 2)) < 0.6).astype(np.uint8)
        dense = _reconstruct_dense(core, (a, b, c))
        updated, error = _update_core(dense, core.copy(), (a, b, c))
        reconstructed = _reconstruct_dense(updated, (a, b, c))
        # The update may swap redundant entries but never worsen the fit.
        assert error == int((reconstructed != dense).sum())
        assert error == 0


def _update_core_full_array(dense, core, factors):
    """The core update over the full I x J x K array per entry: each
    entry's block indicator, its exclusive cells and the count update span
    the whole tensor.  :func:`_update_core` reads only the block's box."""
    a, b, c = (factor.astype(bool) for factor in factors)
    updated = core.copy()
    counts = np.einsum(
        "pqr,ip,jq,kr->ijk", updated.astype(np.int64), a.astype(np.int64),
        b.astype(np.int64), c.astype(np.int64),
    )
    tensor = dense.astype(bool)
    for p, q, r in np.ndindex(*core.shape):
        block = a[:, p][:, None, None] & b[:, q][None, :, None] & c[:, r]
        without = counts - block if updated[p, q, r] else counts
        exclusive = block & (without == 0)
        gain = int((exclusive & tensor).sum())
        keep = gain > int((exclusive & ~tensor).sum())
        if keep and not updated[p, q, r]:
            updated[p, q, r] = 1
            counts = counts + block
        elif not keep and updated[p, q, r]:
            updated[p, q, r] = 0
            counts = without
    return updated, int(((counts > 0) ^ tensor).sum())


@pytest.mark.parametrize("seed", range(40))
def test_update_core_matches_full_array_formula(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
    core_shape = tuple(int(n) for n in rng.integers(1, 4, size=3))
    density = rng.choice([0.1, 0.4, 0.8])
    factors = tuple(
        (rng.random((n, rank)) < density).astype(np.uint8)
        for n, rank in zip(shape, core_shape)
    )
    core = (rng.random(core_shape) < 0.5).astype(np.uint8)
    if seed % 2:
        dense = _reconstruct_dense(core, factors) ^ (rng.random(shape) < 0.1)
    else:
        dense = rng.random(shape) < density
    updated, error = _update_core(dense.astype(np.uint8), core, factors)
    want_core, want_error = _update_core_full_array(
        dense.astype(np.uint8), core, factors
    )
    np.testing.assert_array_equal(updated, want_core)
    assert error == want_error
