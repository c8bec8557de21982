"""Factor-update comms floor: per-column sweep bytes at rank 8, dim 128.

The broadcast-handle plane's claim (DESIGN.md §11): the factor-update
sweep references the factor matrices through one broadcast handle and
ships only handles and the pending rows' accepted bits, instead of
O(n_rows·words + outer + inner) serialized closure bytes per task.  The
sweep runs in rounds — at most one stage per column update, usually far
fewer (docs/algorithm.md §3) — so the floor is still stated per column
update.  This benchmark runs DBTF on a fixed-seed planted tensor, sums
every ledger row whose ``+``-split stage name has a ``columnErrors``
(round task payload) or ``columnUpdate`` (accepted-bits broadcast)
segment, asserts the average per column update stays at or below the
floor, times the batched vs row-loop ``boolean_matmul`` kernel, and
writes ``BENCH_update.json``::

    python benchmarks/bench_update.py [--smoke]

Run it after any change to the broadcast plane, payload byte accounting,
or the column-sweep task shapes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bitops import BitMatrix
from repro.bitops.ops import _boolean_matmul_batched, _boolean_matmul_rowloop
from repro.core import dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import planted_tensor

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _emit import best_wall_time, emit, entry  # noqa: E402

N_MACHINES = 4
#: Per-column sweep bytes at rank 8 / dim 128: closure-capture tasks were
#: recorded at 8848 B (broadcast handles: 976 B, with a separate cache-build
#: stage), and the handle path was held to a 5x drop, so 8848 / 5.
MAX_PER_COLUMN_BYTES = 1769
SWEEP_SEGMENTS = {"columnErrors", "columnUpdate"}


def _run(tensor, rank, max_iterations, n_partitions):
    """One decomposition; returns (per-column bytes, sim time)."""
    with SimulatedRuntime(
        ClusterConfig(n_machines=N_MACHINES, cores_per_machine=2)
    ) as runtime:
        result = dbtf(tensor, rank=rank, max_iterations=max_iterations,
                      n_partitions=n_partitions, seed=0, runtime=runtime)
        # Driver->worker bytes of the column sweep: every stage fused with
        # a columnErrors round task plus the columnUpdate broadcasts,
        # averaged per column update (rank columns x 3 modes x
        # iterations), of which each takes at most one stage.
        sweep_bytes = sum(
            value for name, value in runtime.ledger.by_stage.items()
            if SWEEP_SEGMENTS & set(name.split("+"))
        )
        n_columns = rank * 3 * len(result.errors_per_iteration)
        return sweep_bytes / n_columns, runtime.simulated_time(N_MACHINES)


def measure(dim: int, rank: int, n_partitions: int, iterations: int,
            repeats: int):
    """Per-column sweep bytes on one planted tensor, plus the matmul kernel."""
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=rank, factor_density=0.1,
        rng=np.random.default_rng(7),
    )
    params = {"dim": dim, "rank": rank, "n_partitions": n_partitions,
              "iterations": iterations}

    wall, (per_column, simulated) = best_wall_time(
        lambda: _run(tensor, rank, iterations, n_partitions), repeats=repeats
    )
    records = [
        entry("update_handles", {**params, "per_column_bytes": per_column},
              wall_s=wall, simulated_s=simulated)
    ]
    if per_column > MAX_PER_COLUMN_BYTES:
        raise AssertionError(
            f"per-column sweep bytes {per_column:.0f} B exceed the "
            f"{MAX_PER_COLUMN_BYTES} B floor at rank {rank}, dim {dim}"
        )

    # The batched kernel the rewired sweep leans on, vs its loop baseline.
    rng = np.random.default_rng(3)
    left = BitMatrix.random(256, 64, 0.2, rng)
    right = BitMatrix.random(64, 1024, 0.2, rng)
    loop_wall, loop_product = best_wall_time(
        lambda: _boolean_matmul_rowloop(left, right), repeats=max(repeats, 3)
    )
    batched_wall, batched_product = best_wall_time(
        lambda: _boolean_matmul_batched(left, right), repeats=max(repeats, 3)
    )
    if batched_product != loop_product:
        raise AssertionError("batched boolean_matmul diverged from row loop")
    kernel_params = {"shape": [256, 64, 1024]}
    records.append(entry("boolean_matmul_rowloop", kernel_params,
                         wall_s=loop_wall))
    records.append(entry("boolean_matmul_batched", kernel_params,
                         wall_s=batched_wall))
    summary = {
        "per_column": per_column,
        "matmul_speedup": loop_wall / batched_wall,
    }
    return records, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=128)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run (same rank-8/dim-128 "
                             "contract point, fewer iterations/repeats)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.iterations = 1
        args.repeats = 1

    records, summary = measure(args.dim, args.rank, args.partitions,
                               args.iterations, args.repeats)
    emit("BENCH_update.json", records)
    print(
        f"per-column bytes: {summary['per_column']:.0f} "
        f"(floor {MAX_PER_COLUMN_BYTES}); "
        f"boolean_matmul batched {summary['matmul_speedup']:.1f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
