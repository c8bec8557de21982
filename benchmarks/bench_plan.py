"""Stage-fusion floor: dispatched stages per DBTF iteration, per backend.

The plan layer's claim (DESIGN.md §10): fusing each maximal chain of
narrow transformations into one dispatch costs a DBTF iteration one stage
per round of each factor update — at most one per column update, 3 modes
× R columns, which is the floor — one scheduler wave, span, and driver
round-trip per chain instead of per transformation.  This benchmark
derives the *per-iteration* stage count from the difference between a
2-iteration and a 1-iteration run (subtracting the shared setup), asserts
it stays at or below that floor, asserts that the factor bit-patterns, the
error trace, the stage count and every ledger byte total are identical on
the serial and process backends, and writes ``BENCH_plan.json``::

    python benchmarks/bench_plan.py [--smoke]

Run it after any change to the planner, the runtime dispatch path, or
the decomposition's lineage shape.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import dbtf
from repro.distengine import BACKEND_NAMES, ClusterConfig, SimulatedRuntime
from repro.tensor import planted_tensor

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _emit import best_wall_time, emit, entry  # noqa: E402

N_MACHINES = 4


def max_stages_per_iteration(rank: int) -> int:
    """The floor: one stage per column update, 3 modes x ``rank`` columns.

    The rounds take at most that many (docs/algorithm.md §3), so it is an
    upper bound.

    At rank 2 / dim 24 fused dispatch was recorded at 6 stages/iteration
    against 9 (= 3(R+1), a separate cache-build stage per mode, while the
    cache tables were a persisted node) for the
    one-stage-per-transformation dispatch this floor replaces.
    """
    return 3 * rank


def _run(tensor, rank, max_iterations, n_partitions, backend):
    """One decomposition; returns (fingerprint, n_stages, simulated_s)."""
    with SimulatedRuntime(
        ClusterConfig(n_machines=N_MACHINES, cores_per_machine=2,
                      backend=backend, n_workers=2)
    ) as runtime:
        result = dbtf(tensor, rank=rank, max_iterations=max_iterations,
                      n_partitions=n_partitions, seed=0, runtime=runtime)
        fingerprint = (
            tuple(factor.words.tobytes() for factor in result.factors),
            tuple(result.errors_per_iteration),
            result.report.n_stages,
            tuple(sorted(runtime.ledger.by_stage.items())),
        )
        return fingerprint, result.report.n_stages, runtime.simulated_time(
            N_MACHINES
        )


def measure(dim: int, rank: int, n_partitions: int, iterations: int = 2):
    """Per-iteration stage count and cross-backend identity on one tensor.

    Returns ``(records, summary)``: the ``_emit`` entries for every
    backend and a dict with the per-iteration stage count and its floor.
    """
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=rank, factor_density=0.3,
        rng=np.random.default_rng(7),
    )
    params = {"dim": dim, "rank": rank, "n_partitions": n_partitions,
              "iterations": iterations}
    _, short_stages, _ = _run(tensor, rank, 1, n_partitions, "serial")

    records = []
    fingerprints = {}
    per_iteration = None
    for backend in BACKEND_NAMES:
        wall, (fingerprint, n_stages, simulated) = best_wall_time(
            lambda backend=backend: _run(tensor, rank, iterations,
                                         n_partitions, backend),
            repeats=2,
        )
        fingerprints[backend] = fingerprint
        per_iteration = n_stages - short_stages
        records.append(
            entry(f"dbtf_{backend}",
                  {**params, "stages_dispatched": n_stages,
                   "stages_per_iteration": per_iteration},
                  wall_s=wall, simulated_s=simulated)
        )

    # Backends may only change how fast the host finishes, never what the
    # stages compute or meter.
    for backend in BACKEND_NAMES[1:]:
        if fingerprints[backend] != fingerprints["serial"]:
            raise AssertionError(
                f"{backend} run diverged from serial: factors / errors / "
                f"stage count / ledger bytes must be bit-identical"
            )
    floor = max_stages_per_iteration(rank)
    if per_iteration > floor:
        raise AssertionError(
            f"{per_iteration} stages per iteration exceed the floor of "
            f"{floor} (one per column update) at rank {rank}"
        )
    summary = {"stages_per_iteration": per_iteration,
               "max_stages_per_iteration": floor}
    records.append(
        entry("stages_per_iteration", {**params, **summary},
              wall_s=0.0, simulated_s=None)
    )
    return records, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=24)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--partitions", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)
    if args.smoke:
        args.dim = 12

    records, summary = measure(args.dim, args.rank, args.partitions)
    emit("BENCH_plan.json", records)
    print(
        f"stages/iteration: {summary['stages_per_iteration']} "
        f"(floor {summary['max_stages_per_iteration']}), bit-identical "
        f"across {', '.join(BACKEND_NAMES)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
