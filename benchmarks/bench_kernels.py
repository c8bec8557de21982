"""Micro-benchmarks of the bit-packed kernels everything else is built on.

These are the operations the paper's flop analysis counts: Boolean row
summations (word-wise OR), reconstruction-error evaluation (XOR +
popcount), cache-table construction (Lemma 2), and the Boolean matrix
product.  Tracking them catches regressions in the library's foundation.

Each kernel is benchmarked against its loop-form reference in
:mod:`repro.bitops.ops`, and ``main()`` asserts the public kernels' >=3x
floors over those references.
"""

import numpy as np
import pytest

from repro.bitops import (
    BitMatrix,
    boolean_matmul,
    khatri_rao,
    ops,
    or_accumulate_table,
    packing,
    pointwise_vector_matrix,
    xor_popcount,
)
from repro.distengine import estimate_bytes, estimate_bytes_cached


@pytest.fixture(scope="module")
def packed_rows():
    rng = np.random.default_rng(0)
    dense = (rng.random((512, 4096)) < 0.1).astype(np.uint8)
    return packing.pack_bits(dense)


def test_popcount_rows(benchmark, packed_rows):
    total = benchmark(lambda: packing.popcount_rows(packed_rows))
    assert total.shape == (512,)


def test_xor_popcount_error_kernel(benchmark, packed_rows):
    other = np.roll(packed_rows, 1, axis=0)
    result = benchmark(lambda: xor_popcount(packed_rows, other))
    assert result == int(packing.popcount_rows(packed_rows ^ other).sum())


@pytest.mark.parametrize("group_size", [10, 15])
def test_cache_table_construction(benchmark, group_size):
    rng = np.random.default_rng(1)
    dense = (rng.random((group_size, 512)) < 0.3).astype(np.uint8)
    packed = packing.pack_bits(dense)
    table = benchmark(lambda: or_accumulate_table(packed, group_size))
    assert table.shape[0] == 2**group_size


def test_cache_gather(benchmark):
    rng = np.random.default_rng(2)
    table = or_accumulate_table(
        packing.pack_bits((rng.random((15, 512)) < 0.3).astype(np.uint8)), 15
    )
    keys = rng.integers(0, 2**15, size=(512, 64))
    gathered = benchmark(lambda: table[keys])
    assert gathered.shape == (512, 64, table.shape[1])


@pytest.mark.parametrize("kernel", [ops._boolean_matmul_rowloop, boolean_matmul],
                         ids=["rowloop", "public"])
def test_boolean_matmul(benchmark, kernel):
    rng = np.random.default_rng(3)
    left = BitMatrix.random(256, 64, 0.2, rng)
    right = BitMatrix.random(64, 1024, 0.2, rng)
    product = benchmark(lambda: kernel(left, right))
    assert product.shape == (256, 1024)
    assert product == ops._boolean_matmul_rowloop(left, right)


@pytest.mark.parametrize("kernel", [ops._khatri_rao_rowloop, khatri_rao],
                         ids=["rowloop", "public"])
def test_khatri_rao(benchmark, kernel):
    rng = np.random.default_rng(5)
    left = BitMatrix.random(64, 64, 0.3, rng)
    right = BitMatrix.random(64, 64, 0.3, rng)
    product = benchmark(lambda: kernel(left, right))
    assert product.shape == (64 * 64, 64)
    assert product == ops._khatri_rao_rowloop(left, right)


@pytest.mark.parametrize("kernel", [ops._pointwise_rowloop,
                                    pointwise_vector_matrix],
                         ids=["rowloop", "public"])
def test_pointwise_vector_matrix(benchmark, kernel):
    rng = np.random.default_rng(6)
    matrix = BitMatrix.random(4096, 64, 0.3, rng)
    vector = (rng.random(64) < 0.5).astype(np.uint8)
    product = benchmark(lambda: kernel(vector, matrix))
    assert product.shape == (4096, 64)
    assert product == ops._pointwise_rowloop(vector, matrix)


def test_slice_bits(benchmark, packed_rows):
    sliced = benchmark(lambda: packing.slice_bits(packed_rows, 100, 3000))
    assert sliced.shape[0] == 512


def test_estimate_bytes_cached_hit(benchmark):
    """Memoized payload sizing: repeat calls skip the recursive walk."""

    class Payload:
        def __init__(self):
            self.words = np.zeros((512, 64), dtype=np.uint64)
            self.meta = {"rows": 512, "name": "factor"}

    payload = Payload()
    expected = estimate_bytes_cached(payload)  # prime the memo
    assert benchmark(lambda: estimate_bytes_cached(payload)) == expected


def main(argv=None) -> int:
    """Time every kernel and its reference, and write ``BENCH_kernels.json``.

    Floors asserted before emitting:

    * batched boolean_matmul >= 3x the row loop at (256, 64, 1024);
    * the public boolean_matmul >= 3x the row loop there too;
    * broadcast khatri_rao >= 3x its row loop at (64, 64, 64);
    * packed-mask pointwise product >= 3x its row loop at (4096, 64).
    """
    import argparse
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from _emit import best_wall_time, emit, entry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer repeats (CI-friendly)")
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else args.repeats

    rng = np.random.default_rng(0)
    packed = packing.pack_bits((rng.random((512, 4096)) < 0.1).astype(np.uint8))
    rolled = np.roll(packed, 1, axis=0)
    group = packing.pack_bits((rng.random((15, 512)) < 0.3).astype(np.uint8))
    table = or_accumulate_table(group, 15)
    keys = rng.integers(0, 2**15, size=(512, 64))
    left = BitMatrix.random(256, 64, 0.2, rng)
    right = BitMatrix.random(64, 1024, 0.2, rng)
    kr_left = BitMatrix.random(64, 64, 0.3, rng)
    kr_right = BitMatrix.random(64, 64, 0.3, rng)
    pw_matrix = BitMatrix.random(4096, 64, 0.3, rng)
    pw_vector = (rng.random(64) < 0.5).astype(np.uint8)

    class _Payload:
        def __init__(self):
            self.words = np.zeros((512, 64), dtype=np.uint64)
            self.meta = {"rows": 512, "name": "factor"}

    payload = _Payload()
    estimate_bytes_cached(payload)  # prime the memo before timing

    scenarios = [
        ("popcount_rows", {"rows": 512, "cols": 4096},
         lambda: packing.popcount_rows(packed)),
        ("xor_popcount_error", {"rows": 512, "cols": 4096},
         lambda: int(packing.popcount_rows(packed ^ rolled).sum())),
        ("xor_popcount", {"rows": 512, "cols": 4096},
         lambda: xor_popcount(packed, rolled)),
        ("cache_table_construction", {"group_size": 15},
         lambda: or_accumulate_table(group, 15)),
        ("cache_gather", {"keys": keys.size},
         lambda: table[keys]),
        ("boolean_matmul_rowloop", {"shape": [256, 64, 1024]},
         lambda: ops._boolean_matmul_rowloop(left, right)),
        ("boolean_matmul_batched", {"shape": [256, 64, 1024]},
         lambda: ops._boolean_matmul_batched(left, right)),
        ("boolean_matmul", {"shape": [256, 64, 1024]},
         lambda: boolean_matmul(left, right)),
        ("khatri_rao_rowloop", {"shape": [64, 64, 64]},
         lambda: ops._khatri_rao_rowloop(kr_left, kr_right)),
        ("khatri_rao_broadcast", {"shape": [64, 64, 64]},
         lambda: khatri_rao(kr_left, kr_right)),
        ("pointwise_rowloop", {"rows": 4096, "cols": 64},
         lambda: ops._pointwise_rowloop(pw_vector, pw_matrix)),
        ("pointwise_mask", {"rows": 4096, "cols": 64},
         lambda: pointwise_vector_matrix(pw_vector, pw_matrix)),
        ("slice_bits", {"rows": 512, "start": 100, "stop": 3000},
         lambda: packing.slice_bits(packed, 100, 3000)),
        ("sizing_payload_walk", {"attrs": 2},
         lambda: estimate_bytes(payload)),
        ("sizing_payload_cached", {"attrs": 2},
         lambda: estimate_bytes_cached(payload)),
    ]
    entries = [
        entry(name, params, best_wall_time(fn, repeats)[0])
        for name, params, fn in scenarios
    ]
    by_name = {record["name"]: record["wall_s"] for record in entries}

    floors = [
        ("batched boolean_matmul", "boolean_matmul_rowloop",
         "boolean_matmul_batched"),
        ("public boolean_matmul", "boolean_matmul_rowloop",
         "boolean_matmul"),
        ("broadcast khatri_rao", "khatri_rao_rowloop", "khatri_rao_broadcast"),
        ("packed-mask pointwise", "pointwise_rowloop", "pointwise_mask"),
    ]
    for label, slow, fast in floors:
        speedup = by_name[slow] / by_name[fast]
        print(f"{label} speedup: {speedup:.2f}x ({slow} -> {fast})")
        if speedup < 3.0:
            raise SystemExit(
                f"{label} only {speedup:.2f}x faster than {slow}; expected >= 3x"
            )
    slow, fast = "sizing_payload_walk", "sizing_payload_cached"
    print(f"memoized payload sizing speedup: "
          f"{by_name[slow] / by_name[fast]:.2f}x ({slow} -> {fast})")
    emit("BENCH_kernels.json", entries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
