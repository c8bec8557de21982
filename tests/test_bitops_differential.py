"""Differential correctness harness for the packed-Boolean kernels.

Each public kernel runs one vectorized implementation.  This file pins it
bit-identical to its loop-form reference — for the ``xor_popcount``
family, to a dense ``unpackbits`` oracle — on the shapes packed-bit
kernels get wrong: 0-row/0-column operands, multi-word rows, ``(1, W)``
operands broadcast against ``(N, W)``, and the small row counts the
batched matmul now handles.  It also holds the kernels' observability
contract across backends, and checks end to end that swapping DBTF's
column kernel for a dense oracle leaves its factors and errors unchanged.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import (
    BitMatrix,
    boolean_matmul,
    khatri_rao,
    ops,
    packing,
    pointwise_vector_matrix,
    xor_popcount,
)
from repro.distengine import ClusterConfig, SimulatedRuntime

#: Dimensions that historically break packed-bit kernels: empty, single,
#: byte and word-boundary straddlers (7/8, 63/64/65), and multi-word widths.
EDGE_DIMS = [0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 129]

dims = st.sampled_from(EDGE_DIMS) | st.integers(min_value=0, max_value=140)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _oracle_xor_popcount(a, b):
    """Per-row ``popcount(a ^ b)`` by unpacking every bit densely."""
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    )
    xored = np.ascontiguousarray(a ^ b)
    bits = np.unpackbits(xored.view(np.uint8), axis=-1)
    return bits.sum(axis=-1, dtype=np.int64)


def _random_words(rng, shape):
    return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)


class TestBooleanMatmulDifferential:
    @settings(max_examples=60, deadline=None)
    @given(m=dims, k=dims, n=dims, seed=seeds)
    def test_all_impls_bit_identical(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        left = BitMatrix.random(m, k, 0.3, rng)
        right = BitMatrix.random(k, n, 0.3, rng)
        reference = ops._boolean_matmul_rowloop(left, right)
        assert ops._boolean_matmul_batched(left, right) == reference
        product = boolean_matmul(left, right)
        assert product == reference
        assert product.words.dtype == np.uint64

    @pytest.mark.parametrize("m", [1, 2, 8, 31, 32, 33])
    def test_small_row_counts(self, m):
        """Short left operands run the batched gather too."""
        rng = np.random.default_rng(7)
        left = BitMatrix.random(m, 70, 0.4, rng)
        right = BitMatrix.random(70, 130, 0.4, rng)
        assert boolean_matmul(left, right) == ops._boolean_matmul_rowloop(
            left, right
        )

    def test_big_endian_runs_rowloop(self, monkeypatch):
        """On a big-endian host the public kernel runs the row loop.

        The batched gather's byte view only lines up with bit positions on
        little-endian hosts.  Compute the batched result first, then report
        a big-endian byteorder: the batched path must not run, and the
        row-loop output must equal the batched one.
        """
        rng = np.random.default_rng(11)
        left = BitMatrix.random(40, 70, 0.4, rng)
        right = BitMatrix.random(70, 90, 0.4, rng)
        batched_expected = boolean_matmul(left, right)

        def _refuse(*args):  # pragma: no cover - must not run
            raise AssertionError("batched matmul ran on a big-endian host")

        monkeypatch.setattr(sys, "byteorder", "big")
        monkeypatch.setattr(ops, "_boolean_matmul_batched", _refuse)
        assert boolean_matmul(left, right) == batched_expected


class TestKhatriRaoDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([0, 1, 5, 17, 33]) | st.integers(0, 40),
        q=st.sampled_from([0, 1, 5, 17, 33]) | st.integers(0, 40),
        r=dims,
        seed=seeds,
    )
    def test_all_impls_bit_identical(self, p, q, r, seed):
        rng = np.random.default_rng(seed)
        left = BitMatrix.random(p, r, 0.4, rng)
        right = BitMatrix.random(q, r, 0.4, rng)
        product = khatri_rao(left, right)
        assert product == ops._khatri_rao_rowloop(left, right)
        assert product.words.dtype == np.uint64


class TestPointwiseDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows=dims, cols=dims, seed=seeds)
    def test_all_impls_bit_identical(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = BitMatrix.random(rows, cols, 0.4, rng)
        vector = (rng.random(cols) < 0.5).astype(np.uint8)
        product = pointwise_vector_matrix(vector, matrix)
        assert product == ops._pointwise_rowloop(vector, matrix)
        assert product.words.dtype == np.uint64


class TestXorPopcountDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows=dims, words=st.sampled_from([0, 1, 2, 3, 9]), seed=seeds)
    def test_total_impls_identical(self, rows, words, seed):
        rng = np.random.default_rng(seed)
        a = _random_words(rng, (rows, words))
        b = _random_words(rng, (rows, words))
        total = xor_popcount(a, b)
        assert type(total) is int
        assert total == int(_oracle_xor_popcount(a, b).sum())

    def test_three_dimensional_operands(self):
        """Operands of any rank: (rows, blocks, words) counts every word."""
        rng = np.random.default_rng(3)
        a = _random_words(rng, (11, 4, 3))
        b = _random_words(rng, (11, 4, 3))
        assert xor_popcount(a, b) == int(_oracle_xor_popcount(a, b).sum())

    def test_broadcast_operands(self):
        """Broadcasting (1, W) against (N, W) must match materialized inputs."""
        rng = np.random.default_rng(4)
        a = _random_words(rng, (1, 5))
        b = _random_words(rng, (24, 5))
        expected = _oracle_xor_popcount(np.broadcast_to(a, b.shape), b)
        assert xor_popcount(a, b) == xor_popcount(b, a) == int(expected.sum())


# ----------------------------------------------------------------------
# Observability: impl= span labels and kernel_dispatch_total
# ----------------------------------------------------------------------
BACKENDS = ["serial", "process"]


def _kernel_probe_task(index, items):
    """Module-level (picklable) task: one matmul + one xor per partition."""
    seed = items[0]
    rng = np.random.default_rng(seed)
    left = BitMatrix.random(12, 12, 0.4, rng)
    right = BitMatrix.random(12, 9, 0.4, rng)
    product = boolean_matmul(left, right)
    total = xor_popcount(left.words, left.words)
    return [int(product.words.sum() % 1000003) + total]


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelObservability:
    def test_impl_label_and_counter(self, backend):
        config = ClusterConfig(n_machines=2, backend=backend, tracing=True)
        with SimulatedRuntime(config) as runtime:
            results = runtime.run_stage(
                "kernelProbe", _kernel_probe_task, [(0, [0]), (1, [1])]
            )
        assert len(results) == 2

        matmul_spans = [
            span for span in runtime.tracer.spans
            if span.name == "boolean_matmul"
        ]
        assert len(matmul_spans) == 2
        for span in matmul_spans:
            assert span.attrs["impl"] == "batched"
            assert span.attrs["m"] == 12

        assert runtime.metrics.value(
            "kernel_dispatch_total", kernel="boolean_matmul", impl="batched",
        ) == 2.0
        assert runtime.metrics.value(
            "kernel_dispatch_total", kernel="xor_popcount", impl="twopass",
        ) == 2.0

    def test_counter_totals_repeatable(self, backend):
        def run():
            config = ClusterConfig(n_machines=2, backend=backend, tracing=True)
            with SimulatedRuntime(config) as runtime:
                runtime.run_stage(
                    "kernelProbe", _kernel_probe_task,
                    [(i, [i]) for i in range(4)],
                )
            return runtime.metrics.value(
                "kernel_dispatch_total", kernel="boolean_matmul", impl="batched",
            )

        assert run() == run() == 4.0


# ----------------------------------------------------------------------
# End to end: the error kernel's implementation never changes results
# ----------------------------------------------------------------------
def _oracle_column_errors(data, tables, keys, *, seed=False):
    """``update.column_errors`` re-derived densely from the same inputs.

    Every (column, row) cell of the round's grid is evaluated over every
    PVM block of the partition, unpacked bit by bit: its tensor columns,
    its cached row summation (one table entry per group, keyed by
    ``row_key & outer_key``) and the coverage a 1 would add.  Both
    candidates' errors are counted in full, so the change needs no
    ``cover & ~rec0`` shortcut, the blocks no active-block selection and
    the block edges no window mask.  Seeding returns the full errors of
    the first column's pairs.
    """
    plan = data.plan
    change = np.zeros(keys.pairs.shape, dtype=np.int64)
    error_if_zero = np.zeros(keys.pairs.shape, dtype=np.int64)
    for block in plan.blocks:
        pvm, cells = block.pvm_index, slice(block.start, block.stop)
        words = data.words[keys.rows, pvm - plan.pvm_span.start]
        tensor = packing.unpack_bits(words, block.width)[:, cells] != 0
        for k, column in enumerate(keys.columns):
            rec_zero = np.zeros((keys.rows.size, block.width), dtype=bool)
            for table, outer_keys, row_keys in zip(
                tables.tables, tables.outer_keys, keys.row_keys
            ):
                entries = packing.unpack_bits(table.T, block.width) != 0
                rec_zero |= entries[row_keys[k] & outer_keys[pvm]]
            rec_zero = rec_zero[:, cells]
            cover = packing.unpack_bits(
                tables.coverage[:, column, pvm], block.width
            )
            cover = cover[cells] != 0
            zero = (rec_zero ^ tensor).sum(axis=1)
            one = ((rec_zero | cover) ^ tensor).sum(axis=1)
            change[k] += one - zero
            error_if_zero[k] += zero
    if not seed:
        return change[keys.pairs], None
    return change[keys.pairs], error_if_zero[0][keys.pairs[0]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_dbtf_identical_with_oracle_error_kernel(backend, monkeypatch):
    """DBTF with the dense oracle as its error kernel gives the same solve.

    The process backend forks its workers at the first stage, after the
    patch, so the workers run the oracle too.  Edge blocks (5 partitions
    over 16-wide PVMs) and the seed scan both go through the oracle.
    """
    from repro.core import dbtf, update
    from repro.tensor import planted_tensor

    tensor, _ = planted_tensor(
        (16, 16, 16), rank=3, factor_density=0.3,
        rng=np.random.default_rng(5),
    )
    cluster = ClusterConfig(backend=backend)
    options = dict(rank=3, seed=1, max_iterations=2, n_partitions=5,
                    cluster=cluster)
    baseline = dbtf(tensor, **options)

    calls = []

    def oracle(*args, seed=False):
        calls.append(seed)
        return _oracle_column_errors(*args, seed=seed)

    monkeypatch.setattr(update, "column_errors", oracle)
    checked = dbtf(tensor, **options)

    if backend != "process":
        assert calls, "the oracle error kernel never ran"
        assert any(calls) and not all(calls)
    assert checked.error == baseline.error
    assert checked.errors_per_iteration == baseline.errors_per_iteration
    for ours, theirs in zip(checked.factors, baseline.factors):
        assert np.array_equal(ours.to_dense(), theirs.to_dense())
