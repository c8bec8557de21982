"""Acceptance gate for the out-of-core storage tier.

Factorizes a planted tensor whose tracked cache working set is at least
2x the configured memory budget and verifies, per backend, that:

* factors and the per-iteration error trace are bit-identical to an
  unbudgeted serial run, both without a budget and with one (the budget
  moves caches between RAM and spill files, never changes the arithmetic;
  the backend never changes it either);
* tracked resident bytes never exceed the budget (``peak_resident``);
* the run actually spilled (``spill_events > 0``) — otherwise the
  working-set-to-budget ratio was too small to prove anything.

The budget is derived, not hard-coded: a probe run under an effectively
unlimited budget measures the peak tracked working set, and the real
budget is half of that, which guarantees the >= 2x pressure ratio on any
host and any tensor size.

Usage::

    python benchmarks/bench_storage.py            # 48^3 tensor
    python benchmarks/bench_storage.py --smoke    # CI-sized quick run
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _emit import emit, entry

from repro.core import dbtf
from repro.distengine import BACKEND_NAMES, ClusterConfig, SimulatedRuntime
from repro.storage import format_size
from repro.tensor import planted_tensor

#: Probe budget large enough that nothing ever spills.
UNLIMITED = 1 << 50


def _run(tensor, args, memory_budget):
    """One budgeted (or probe) factorization on each requested backend."""
    results = {}
    for backend in args.backends:
        runtime = SimulatedRuntime(
            ClusterConfig(
                n_machines=2, cores_per_machine=2, backend=backend,
                memory_budget=memory_budget,
            )
        )
        try:
            started = time.perf_counter()
            result = dbtf(
                tensor, rank=args.rank, seed=0,
                max_iterations=args.iterations,
                n_partitions=args.partitions, runtime=runtime,
            )
            wall_s = time.perf_counter() - started
            budget = runtime.storage.budget
            results[backend] = {
                "wall_s": wall_s,
                "simulated_s": result.report.simulated_time,
                "fingerprint": _fingerprint(result),
                "peak_resident": budget.peak_resident,
                "spill_events": budget.spill_events,
                "load_events": budget.load_events,
                "spill_bytes": result.report.spill_bytes,
            }
        finally:
            runtime.close()
    return results


def _baseline(tensor, args, backend):
    """Unbudgeted run; the serial one is the reference fingerprint."""
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend)
    )
    try:
        started = time.perf_counter()
        result = dbtf(
            tensor, rank=args.rank, seed=0, max_iterations=args.iterations,
            n_partitions=args.partitions, runtime=runtime,
        )
        wall_s = time.perf_counter() - started
        assert runtime.storage is None, "no budget must mean no storage tier"
        assert result.report.spill_bytes == 0
        return wall_s, result.report.simulated_time, _fingerprint(result)
    finally:
        runtime.close()


def _fingerprint(result):
    return (
        tuple(factor.words.tobytes() for factor in result.factors),
        result.errors_per_iteration,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=48,
                        help="cube side length (default 48)")
    parser.add_argument("--rank", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--backends", nargs="+",
                        default=list(BACKEND_NAMES), choices=BACKEND_NAMES)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (16^3, rank 2)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.dim, args.rank, args.partitions = 16, 2, 3

    tensor, _ = planted_tensor(
        (args.dim,) * 3, rank=args.rank, factor_density=0.2,
        rng=np.random.default_rng(7),
    )
    print(f"tensor          : {args.dim}^3, planted rank {args.rank}, "
          f"{tensor.nnz} nonzeros, {args.partitions} partitions")

    # Probe: measure the tracked cache working set with nothing spilling.
    probe = _run(tensor, argparse.Namespace(**{**vars(args),
                                              "backends": ["serial"]}),
                 UNLIMITED)["serial"]
    working_set = probe["peak_resident"]
    assert probe["spill_events"] == 0, "probe budget must never spill"
    budget_bytes = max(working_set // 2, 1)
    print(f"working set     : {format_size(working_set)} (probe peak)")
    print(f"memory budget   : {format_size(budget_bytes)} "
          f"(pressure ratio {working_set / budget_bytes:.1f}x)")

    base_wall, base_sim, base_fingerprint = _baseline(tensor, args, "serial")
    unbudgeted = {
        backend: _baseline(tensor, args, backend)
        for backend in args.backends if backend != "serial"
    }
    budgeted = _run(tensor, args, budget_bytes)

    entries = [
        entry("storage_probe_working_set",
              {"dim": args.dim, "rank": args.rank,
               "working_set_bytes": int(working_set)},
              probe["wall_s"], probe["simulated_s"]),
        entry("storage_unbudgeted_serial",
              {"dim": args.dim, "rank": args.rank},
              base_wall, base_sim),
    ]
    failures = []
    for backend, (wall_s, simulated_s, fingerprint) in unbudgeted.items():
        if fingerprint != base_fingerprint:
            failures.append(f"{backend}: unbudgeted results differ from serial")
        entries.append(
            entry(f"storage_unbudgeted_{backend}",
                  {"dim": args.dim, "rank": args.rank},
                  wall_s, simulated_s)
        )
    print(f"unbudgeted      : {', '.join(unbudgeted) or 'no other backend'} "
          f"bit-identical to serial "
          f"{all(fp == base_fingerprint for _, _, fp in unbudgeted.values())}")
    print()
    print(f"{'backend':<10}{'wall (s)':>10}{'spills':>8}{'loads':>7}"
          f"{'spill I/O':>12}{'peak resident':>16}{'identical':>11}")
    for backend, stats in budgeted.items():
        identical = stats["fingerprint"] == base_fingerprint
        within = stats["peak_resident"] <= budget_bytes
        spilled = stats["spill_events"] > 0
        if not identical:
            failures.append(f"{backend}: results differ from unbudgeted run")
        if not within:
            failures.append(
                f"{backend}: peak resident {stats['peak_resident']} exceeds "
                f"budget {budget_bytes}"
            )
        if not spilled:
            failures.append(f"{backend}: never spilled under pressure")
        print(f"{backend:<10}{stats['wall_s']:>10.3f}"
              f"{stats['spill_events']:>8}{stats['load_events']:>7}"
              f"{format_size(stats['spill_bytes']):>12}"
              f"{format_size(stats['peak_resident']):>16}"
              f"{str(identical):>11}")
        entries.append(
            entry(f"storage_budgeted_{backend}",
                  {"dim": args.dim, "rank": args.rank,
                   "budget_bytes": int(budget_bytes),
                   "spill_events": int(stats["spill_events"]),
                   "spill_bytes": int(stats["spill_bytes"]),
                   "peak_resident_bytes": int(stats["peak_resident"])},
                  stats["wall_s"], stats["simulated_s"])
        )
    print()
    emit("BENCH_storage.json", entries)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("all backends bit-identical, resident <= budget, spilling active")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
