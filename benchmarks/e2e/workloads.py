"""Workloads of the end-to-end DBTF benchmark.

This module has two halves:

* **Input generators** (:func:`batch_inputs`, :func:`epoch_inputs`), called
  by ``run.py`` with the run's seed.  The seed feeds only these; the
  program under test receives only the tensors and deltas they return.
* **The workload process** (``python workloads.py SPEC.json``), started by
  ``run.py`` once per workload so that its peak RSS is the workload's own.
  It loads the generated inputs, times set-up and operations in a closed
  loop (the next operation starts when the previous one returns), and
  writes raw samples, fingerprints and the factors the correctness oracle
  needs.  It judges nothing itself: ``run.py`` checks and summarizes.

With ``trace`` set, the process instead runs each workload once untraced
and once under :mod:`layers` instrumentation, and writes per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
from repro import FactorizationSession
from repro.bitops import BitMatrix
from repro.core import DbtfConfig, decompose, drive
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import (
    SparseBoolTensor,
    TensorDelta,
    add_additive_noise,
    add_destructive_noise,
    tensor_from_factors,
)

#: Components cycled through by the epoch stream's hole-punch/refill
#: schedule (the schedule of ``benchmarks/bench_incremental.py``).
CYCLE = 3

#: A memory budget no probe run can exhaust.
UNLIMITED_BUDGET = 1 << 50


@dataclass(frozen=True)
class BatchSize:
    """A planted, noisy tensor and the DBTF configuration that solves it."""

    dim: int
    rank: int
    column_ones: int
    additive_noise: float
    destructive_noise: float
    partitions: int
    max_iterations: int


@dataclass(frozen=True)
class EpochSize:
    """A noise-free planted tensor and its hole-punch/refill delta stream."""

    dim: int
    rank: int
    column_ones: int
    partitions: int
    epochs: int
    holes: int


@dataclass(frozen=True)
class Workload:
    kind: str
    backend: str
    n_workers: "int | None" = None
    #: Memory budget as a share of the unlimited probe's peak resident
    #: bytes; ``None`` runs without the storage tier.
    budget_share: "float | None" = None


# Rank 20 exceeds the cache-group threshold V = 15, so every update splits
# its row-summation cache into two groups (Lemma 2, Fig. 1(c)).  Factor
# columns hold exactly ``column_ones`` ones (8 % of 384) rather than
# Bernoulli draws, and the solve runs a fixed two outer iterations (the
# initial sweep plus one), so the work per solve is the same on every seed.
FULL = {
    "batch": BatchSize(384, 20, 31, 0.10, 0.05, 16, 2),
    "epoch": EpochSize(256, 8, 26, 16, 100, 32),
}
SMOKE = {
    "batch": BatchSize(48, 20, 7, 0.10, 0.05, 4, 2),
    "epoch": EpochSize(32, 4, 8, 4, 30, 2),
}

WORKLOADS = {
    "batch-serial": Workload("batch", "serial"),
    "batch-process": Workload("batch", "process", n_workers=2),
    "batch-spill": Workload("batch", "serial", budget_share=0.25),
    "epoch-stream": Workload("epoch", "serial"),
}


# ----------------------------------------------------------------------
# Input generators (parent side)
# ----------------------------------------------------------------------
def _planted_factors(
    rng: np.random.Generator, dim: int, rank: int, ones: int
) -> "tuple[BitMatrix, BitMatrix, BitMatrix]":
    """Three factors whose every column holds exactly ``ones`` ones."""
    factors = []
    for _ in range(3):
        dense = np.zeros((dim, rank), dtype=np.uint8)
        for column in range(rank):
            dense[rng.choice(dim, size=ones, replace=False), column] = 1
        factors.append(BitMatrix.from_dense(dense))
    return tuple(factors)


def batch_inputs(seed: int, size: BatchSize) -> SparseBoolTensor:
    """The planted, noisy tensor every batch workload factorizes."""
    rng = np.random.default_rng(seed)
    factors = _planted_factors(rng, size.dim, size.rank, size.column_ones)
    clean = tensor_from_factors(factors)
    noisy = add_additive_noise(
        clean, size.additive_noise, rng, reference_nnz=clean.nnz
    )
    return add_destructive_noise(
        noisy, size.destructive_noise, rng, reference_nnz=clean.nnz
    )


@dataclass
class EpochStream:
    """An epoch-0 tensor, its deltas, and the optimal error after each.

    Epoch ``e`` punches holes into cells covered only by planted component
    ``e % CYCLE`` and refills the holes of epoch ``e - CYCLE``, so the
    planted factors stay optimal and the optimal error after epoch ``e`` is
    the number of holes still open.
    """

    tensor: SparseBoolTensor
    added: "list[np.ndarray]"
    removed: "list[np.ndarray]"
    optima: "list[int]"


def epoch_inputs(seed: int, size: EpochSize) -> EpochStream:
    """The epoch-stream workload's tensor and delta schedule."""
    rng = np.random.default_rng(seed)
    factors = _planted_factors(rng, size.dim, size.rank, size.column_ones)
    tensor = tensor_from_factors(factors)
    dense = [factor.to_dense().astype(bool) for factor in factors]
    coords = tensor.coords
    cover = (
        dense[0][coords[:, 0]] & dense[1][coords[:, 1]] & dense[2][coords[:, 2]]
    )
    single = cover.sum(axis=1) == 1
    flats = np.ravel_multi_index(coords.T, tensor.shape)
    exclusive = [flats[single & cover[:, c]] for c in range(CYCLE)]
    empty = np.zeros(0, dtype=np.int64)
    stream = EpochStream(tensor, [], [], [])
    open_holes = 0
    for epoch in range(size.epochs):
        # Holes of epoch e - CYCLE are still open until this delta refills
        # them, so they cannot be punched again in the same delta.
        refill = stream.removed[epoch - CYCLE] if epoch >= CYCLE else empty
        candidates = np.setdiff1d(
            exclusive[epoch % CYCLE], refill, assume_unique=True
        )
        punched = np.sort(rng.choice(candidates, size=size.holes, replace=False))
        stream.added.append(refill)
        stream.removed.append(punched)
        open_holes += punched.size - refill.size
        stream.optima.append(open_holes)
    return stream


def save_inputs(path: Path, inputs: "SparseBoolTensor | EpochStream") -> None:
    """Write a workload's generated inputs for its process to load."""
    arrays = {}
    if isinstance(inputs, EpochStream):
        arrays = {
            "added": np.concatenate(inputs.added),
            "added_counts": np.asarray([a.size for a in inputs.added]),
            "removed": np.concatenate(inputs.removed),
            "removed_counts": np.asarray([r.size for r in inputs.removed]),
        }
        inputs = inputs.tensor
    np.savez(path, shape=np.asarray(inputs.shape), coords=inputs.coords, **arrays)


def _load_inputs(path: str):
    with np.load(path) as data:
        shape = tuple(int(s) for s in data["shape"])
        tensor = SparseBoolTensor(shape, data["coords"])
        if "added" not in data:
            return tensor, None

        def split(values, counts):
            return np.split(values, np.cumsum(counts)[:-1])

        added = split(data["added"], data["added_counts"])
        removed = split(data["removed"], data["removed_counts"])
    deltas = [TensorDelta(shape, a, r) for a, r in zip(added, removed)]
    return tensor, deltas


# ----------------------------------------------------------------------
# Workload process
# ----------------------------------------------------------------------
def fingerprint(factors, errors) -> str:
    """Hash of factor bits and the error trace; equal iff bit-identical."""
    digest = hashlib.sha256()
    for factor in factors:
        digest.update(np.ascontiguousarray(factor.words).tobytes())
    digest.update(repr(tuple(int(e) for e in errors)).encode())
    return digest.hexdigest()[:16]


def _factor_arrays(prefix: str, factors) -> dict:
    return {
        f"{prefix}_{mode}": np.ascontiguousarray(factor.words)
        for mode, factor in enumerate(factors)
    } | {f"{prefix}_cols": np.asarray([factors[0].n_cols])}


def peak_rss_mb(n_workers: int) -> float:
    """Peak RSS of this process plus ``n_workers`` × its largest child's.

    The own term is ``VmHWM``, the high-water mark of this process's
    address space: ``RUSAGE_SELF`` would also carry the spawning process's
    peak across ``exec``.  ``RUSAGE_CHILDREN`` reports the largest
    waited-for descendant, so the worker term counts every pool worker at
    the size of the biggest one.  Both are in KiB on Linux.
    """
    with open("/proc/self/status") as status:
        own = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


class BatchWorkload:
    """One whole DBTF factorization per operation, fresh runtime each time.

    The stage sequence is exactly ``dbtf()``'s; driving the step generator
    by hand only lets set-up (runtime + Algorithm 3 partitioning) be timed
    on its own.
    """

    def __init__(self, spec: dict, tensor: SparseBoolTensor, work_dir: Path):
        self.tensor = tensor
        self.size = BatchSize(**spec["size"])
        self.backend = spec["backend"]
        self.n_workers = spec["n_workers"]
        self.budget_share = spec["budget_share"]
        self.spill_dir = str(work_dir / "spill")
        self.budget = None

    def cluster(self, tracing: bool = False) -> ClusterConfig:
        return ClusterConfig(
            backend=self.backend,
            n_workers=self.n_workers,
            tracing=tracing,
            memory_budget=self.budget,
            spill_dir=self.spill_dir,
        )

    def config(self, cluster: ClusterConfig) -> DbtfConfig:
        return DbtfConfig(
            rank=self.size.rank,
            n_partitions=self.size.partitions,
            max_iterations=self.size.max_iterations,
            seed=0,
            cluster=cluster,
        )

    def probe_budget(self) -> int:
        """Set the budget to a share of an unlimited run's peak residency."""
        self.budget = UNLIMITED_BUDGET
        runtime = self._solve(self.cluster())[2]
        self.budget = max(1, int(runtime.storage.budget.peak_resident * self.budget_share))
        return self.budget

    def setup(self) -> float:
        """Time one set-up (runtime + partitioned unfoldings), then undo it."""
        cluster = self.cluster()
        started = time.perf_counter()
        runtime = SimulatedRuntime(cluster)
        rdds = decompose.prepare_partitioned_unfoldings(
            self.tensor, self.size.partitions, runtime
        )
        elapsed = time.perf_counter() - started
        for rdd in rdds:
            rdd.unpersist()
        runtime.close()
        return elapsed

    def _solve(self, cluster: ClusterConfig):
        config = self.config(cluster)
        started = time.perf_counter()
        runtime = SimulatedRuntime(cluster)
        rdds = []
        try:
            rdds = decompose.prepare_partitioned_unfoldings(
                self.tensor, self.size.partitions, runtime
            )
            result = drive(decompose.dbtf_steps(
                self.tensor, config, runtime, shared_unfoldings=rdds
            ))
        finally:
            for rdd in rdds:
                rdd.unpersist()
            runtime.close()
        return time.perf_counter() - started, result, runtime

    def operation(self, tracing: bool = False) -> dict:
        elapsed, result, _ = self._solve(self.cluster(tracing))
        self.last_factors = result.factors
        return {
            "seconds": elapsed,
            "error": int(result.error),
            "iterations": len(result.errors_per_iteration),
            "fingerprint": fingerprint(
                result.factors, result.errors_per_iteration
            ),
        }

    def oracle_arrays(self, ops: "list[dict]") -> dict:
        """Factors of the last solve (all solves are bit-identical)."""
        return _factor_arrays("final", self.last_factors) if ops else {}

    def close(self) -> None:
        """Nothing to release: every solve closes its own runtime."""


class EpochWorkload:
    """One ``FactorizationSession.advance(delta)`` per operation.

    Set-up is the session plus its epoch-0 ``factorize()``.  When the
    stream runs out before the clock does, a fresh session replays it, so
    every replayed epoch must be bit-identical to its first run.
    """

    def __init__(self, spec: dict, tensor, deltas):
        self.tensor = tensor
        self.deltas = deltas
        self.size = EpochSize(**spec["size"])
        self.session = None
        self.index = 0
        #: Factors of each epoch's first run, for the oracle recount.
        self.saved: dict = {}
        self.epoch0_errors: "list[int]" = []

    def config(self, tracing: bool = False) -> DbtfConfig:
        cluster = ClusterConfig(backend="serial", tracing=tracing)
        return DbtfConfig(
            rank=self.size.rank,
            n_partitions=self.size.partitions,
            seed=0,
            cluster=cluster,
        )

    def start(self, tracing: bool = False) -> float:
        """Open a fresh session at epoch 0; returns the set-up seconds."""
        self.close()
        started = time.perf_counter()
        self.session = FactorizationSession(self.tensor, self.config(tracing))
        first = self.session.factorize()
        elapsed = time.perf_counter() - started
        self.index = 0
        self.epoch0_errors.append(int(first.error))
        return elapsed

    setup = start

    def operation(self, tracing: bool = False) -> dict:
        if self.index == len(self.deltas):
            self.start(tracing)
        index = self.index
        started = time.perf_counter()
        epoch = self.session.advance(self.deltas[index])
        elapsed = time.perf_counter() - started
        self.index += 1
        result = epoch.result
        self.saved.setdefault(index, result.factors)
        return {
            "seconds": elapsed,
            "epoch": index,
            "error": int(result.error),
            "iterations": len(result.errors_per_iteration),
            "fingerprint": fingerprint(
                result.factors, result.errors_per_iteration
            ),
        }

    def oracle_arrays(self, ops: "list[dict]") -> dict:
        """Factors of every tenth epoch and of the last epoch run."""
        keep = {op["epoch"] for op in ops if (op["epoch"] + 1) % 10 == 0}
        if ops:
            keep.add(ops[-1]["epoch"])
        arrays = {}
        for index in sorted(keep):
            arrays |= _factor_arrays(f"epoch{index}", self.saved[index])
        return arrays

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def _run_ops(workload, seconds: float, min_ops: int, tracing: bool = False):
    """Closed loop: operations until ``seconds`` pass and ``min_ops`` ran.

    Stops at the first operation that raises and returns its error with
    the operations that completed.
    """
    deadline = time.perf_counter() + seconds
    ops = []
    while len(ops) < min_ops or time.perf_counter() < deadline:
        try:
            ops.append(workload.operation(tracing))
        except Exception as exc:  # reported as a failed operation
            return ops, f"{type(exc).__name__}: {exc}"
    return ops, None


def run(spec: dict) -> dict:
    tensor, deltas = _load_inputs(spec["inputs"])
    out: dict = {"setup_s": [], "ops": [], "error": None}
    if spec["kind"] == "batch":
        workload = BatchWorkload(spec, tensor, Path(spec["work_dir"]))
        if workload.budget_share is not None:
            out["budget_bytes"] = workload.probe_budget()
    else:
        workload = EpochWorkload(spec, tensor, deltas)
    try:
        if spec["trace"]:
            out |= _run_traced(workload, spec)
        else:
            out["setup_s"] = [workload.setup() for _ in range(spec["setup_reps"])]
            out["ops"], out["error"] = _run_ops(
                workload, spec["seconds"], spec["min_ops"]
            )
    finally:
        workload.close()
    if spec["kind"] == "epoch":
        out["epoch0_errors"] = workload.epoch0_errors
    np.savez(spec["factors"], **workload.oracle_arrays(out["ops"]))
    out["peak_rss_mb"] = peak_rss_mb(spec["n_workers"] or 0)
    return out


def _run_traced(workload, spec: dict) -> dict:
    """One untraced pass, then the same pass under layer instrumentation."""
    epoch = spec["kind"] == "epoch"
    if epoch:
        workload.start()
        plain, error = _run_ops(workload, spec["seconds"] / 2, spec["min_ops"])
    else:
        plain, error = _run_ops(workload, 0.0, 1)
    if error is not None:
        return {"ops": plain, "error": error}
    recorder = layers.Recorder()
    recorder.install()
    try:
        if epoch:
            with recorder.span("setup"):
                workload.start(tracing=True)
        traced, error = [], None
        for _ in plain:
            with recorder.span("op"):
                more, error = _run_ops(workload, 0.0, 1, tracing=True)
            traced += more
            if error is not None:
                break
        if epoch:
            with recorder.span("teardown"):
                workload.close()
    finally:
        recorder.uninstall()
    recorder.write(Path(spec["work_dir"]) / f"trace-{spec['workload']}")
    layer_metrics, extra = layers.summarize(
        recorder,
        plain_s=sum(op["seconds"] for op in plain),
        traced_s=sum(op["seconds"] for op in traced),
    )
    return {
        "ops": traced,
        "untraced_ops": plain,
        "error": error,
        "layers": layer_metrics,
        "layers_extra": extra,
    }


def main(argv: "list[str]") -> int:
    spec = json.loads(Path(argv[0]).read_text())
    result = run(spec)
    Path(spec["output"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
