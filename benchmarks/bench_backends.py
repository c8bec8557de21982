"""Wall-clock comparison of the stage-executor backends.

Times the two heavyweight DBTF phases — partition-and-pack (Algorithm 3,
``prepare_partitioned_unfoldings``) and one full factor-update sweep
(Algorithm 4, ``update_factor``) — under each backend, prints per-phase
speedups over serial, and writes the per-phase walls to
``BENCH_backends.json``.  Exits non-zero unless every backend produced
bit-identical factors, errors, stage names and per-stage ledger.

The engine's metered quantities (per-task durations, ledger bytes,
``simulated_time``) are backend-invariant by construction; only the *host*
wall clock changes.  On a single-core host every backend necessarily ties
(pool overhead aside), so the report always includes ``os.cpu_count()`` —
the acceptance target of >= 2x for thread/process applies on hosts with
four or more cores.

Usage::

    python benchmarks/bench_backends.py               # 256^3 tensor
    python benchmarks/bench_backends.py --smoke       # CI-sized quick run
    python benchmarks/bench_backends.py --dim 128 --backends serial process
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.bitops import BitMatrix
from repro.core import DbtfConfig
from repro.core.decompose import prepare_partitioned_unfoldings
from repro.core.update import update_factor
from repro.distengine import DEFAULT_CLUSTER, SimulatedRuntime
from repro.tensor import planted_tensor

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _emit import emit, entry  # noqa: E402


def _initial_factors(shape, rank):
    rng = np.random.default_rng(0)
    return [
        BitMatrix.from_dense(
            (rng.random((dimension, rank)) < 0.3).astype(np.uint8)
        )
        for dimension in shape
    ]


def _run_backend(name, tensor, args):
    """One measured prepare + factor-update sweep; returns times + fingerprint."""
    config = DbtfConfig(rank=args.rank, n_partitions=args.partitions)
    with SimulatedRuntime(
        DEFAULT_CLUSTER.with_backend(name, args.workers)
    ) as runtime:
        started = time.perf_counter()
        mode_rdds = prepare_partitioned_unfoldings(
            tensor, args.partitions, runtime
        )
        prepare_seconds = time.perf_counter() - started

        factors = _initial_factors(tensor.shape, args.rank)
        outer_inner = {0: (2, 1), 1: (2, 0), 2: (0, 1)}
        updated_words = []
        errors = []
        started = time.perf_counter()
        for mode in range(3):
            outer, inner = outer_inner[mode]
            updated, error = update_factor(
                mode_rdds[mode],
                factors[mode],
                factors[outer],
                factors[inner],
                config,
                runtime,
            )
            updated_words.append(updated.words.tobytes())
            errors.append(error)
        update_seconds = time.perf_counter() - started

        fingerprint = (
            tuple(updated_words),
            tuple(errors),
            tuple(stage.name for stage in runtime.stages),
            tuple(sorted(runtime.ledger.by_stage.items())),
        )
    return prepare_seconds, update_seconds, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=256,
                        help="cube side length (default 256)")
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for thread/process (default: all cores)")
    parser.add_argument("--backends", nargs="+",
                        default=["serial", "thread", "process"],
                        choices=["serial", "thread", "process"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (32^3, rank 4)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.dim, args.rank, args.partitions = 32, 4, 4

    cores = os.cpu_count() or 1
    print(f"host cores     : {cores}")
    print(f"tensor         : {args.dim}^3, planted rank {args.rank}, "
          f"{args.partitions} partitions")
    if cores < 4:
        print("note           : < 4 cores — parallel backends cannot show "
              "their >= 2x target here")

    rng = np.random.default_rng(7)
    tensor, _ = planted_tensor(
        (args.dim,) * 3, rank=args.rank, factor_density=0.1, rng=rng
    )
    print(f"nonzeros       : {tensor.nnz}")
    print()

    rows = []
    fingerprints = {}
    for name in args.backends:
        prepare_s, update_s, fingerprint = _run_backend(name, tensor, args)
        rows.append((name, prepare_s, update_s))
        fingerprints[name] = fingerprint

    reference = fingerprints[args.backends[0]]
    identical = all(fp == reference for fp in fingerprints.values())

    base_prepare, base_update = rows[0][1], rows[0][2]
    print(f"{'backend':<10}{'prepare (s)':>14}{'update (s)':>14}"
          f"{'prep x':>8}{'upd x':>8}")
    records = []
    for name, prepare_s, update_s in rows:
        print(f"{name:<10}{prepare_s:>14.3f}{update_s:>14.3f}"
              f"{base_prepare / prepare_s:>8.2f}{base_update / update_s:>8.2f}")
        params = {
            "backend": name, "dim": args.dim, "rank": args.rank,
            "partitions": args.partitions, "workers": args.workers,
            "cores": cores,
        }
        records.append(entry(f"{name}.prepare", params, prepare_s))
        records.append(entry(f"{name}.update", params, update_s))
    print()
    print(f"outputs bit-identical across backends: {identical}")
    emit("BENCH_backends.json", records)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
