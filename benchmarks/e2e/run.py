"""End-to-end DBTF benchmark: four workloads, user-facing metrics, a traced run.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                  # all four workloads
    python3 benchmarks/e2e/run.py --workload batch-serial --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --trace --seed 0          # per-layer numbers
    python3 benchmarks/e2e/run.py --smoke                   # toy sizes, seconds

Each workload runs in its own process (``workloads.py``) from inputs this
script generates from ``--seed``.  The script checks the outputs — an
independent oracle recount, bit-identical repetitions, and the epoch
stream's analytic optimum — prints every metric by name with its unit and
sample count, writes a results JSON (for ``compare.py``), and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits non-zero when any operation failed.

``--trace`` repeats each workload once untraced and once with every layer
instrumented (``layers.py``) and reports per-layer metrics instead of the
end-to-end ones, which are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / ".out"

#: One workload, from input generation to its checks, must end within
#: this many seconds.
TIME_CAP = 170.0
DEFAULT_SECONDS = {"full": 20.0, "smoke": 1.0}
#: ``(set-up repetitions, minimum operations)`` per workload kind.
REPS = {
    "full": {"batch": (10, 3), "epoch": (5, 20)},
    "smoke": {"batch": (2, 2), "epoch": (2, 5)},
}

#: The end-to-end metrics, as ``(name, unit)``; all come from untraced runs.
END_TO_END = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default 20, smoke 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: all four workloads in seconds")
    parser.add_argument("--out", type=Path,
                        help="results JSON (default .out/results-seed<S>.json)")
    return parser.parse_args(argv)


class Harness:
    """Generates inputs, runs workload processes, checks and summarizes."""

    def __init__(self, args):
        import workloads

        self.w = workloads
        self.args = args
        self.scale = "smoke" if args.smoke else "full"
        self.sizes = workloads.SMOKE if args.smoke else workloads.FULL
        self.seconds = (
            args.seconds if args.seconds is not None
            else DEFAULT_SECONDS[self.scale]
        )
        self.inputs: dict = {}

    def generate(self, kind: str):
        """The seed's inputs for one workload kind (generated once)."""
        if kind not in self.inputs:
            size = self.sizes[kind]
            generator = self.w.batch_inputs if kind == "batch" else self.w.epoch_inputs
            self.inputs[kind] = generator(self.args.seed, size)
        return self.inputs[kind]

    def run(self, name: str) -> dict:
        started = time.perf_counter()
        workload = self.w.WORKLOADS[name]
        kind = workload.kind
        work = OUT / name
        shutil.rmtree(work, ignore_errors=True)
        (work / "tmp").mkdir(parents=True)
        inputs = self.generate(kind)
        self.w.save_inputs(work / "inputs.npz", inputs)
        setup_reps, min_ops = REPS[self.scale][kind]
        spec = {
            "workload": name,
            "kind": kind,
            "backend": workload.backend,
            "n_workers": workload.n_workers,
            "budget_share": workload.budget_share,
            "size": asdict(self.sizes[kind]),
            "seconds": self.seconds,
            "trace": self.args.trace,
            "setup_reps": setup_reps,
            "min_ops": min_ops,
            "work_dir": str(work),
            "inputs": str(work / "inputs.npz"),
            "output": str(work / "output.json"),
            "factors": str(work / "factors.npz"),
        }
        (work / "spec.json").write_text(json.dumps(spec))
        out, problem = self._spawn(work, spec, started)
        (work / "inputs.npz").unlink()
        if out is None:
            return {"correct": False, "attempted": 1, "failed": 1,
                    "failures": [problem], "metrics": {}, "fingerprints": {}}
        return self._summarize(kind, inputs, out, spec)

    def _spawn(self, work: Path, spec: dict, started: float):
        """Run one workload process; returns (output, problem)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        # Temp files (spill and broadcast directories) stay inside the
        # checkout; one BLAS thread keeps the load to the workload's own.
        env.update(TMPDIR=str(work / "tmp"), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        budget = TIME_CAP - (time.perf_counter() - started)
        command = [sys.executable, str(HERE / "workloads.py"), str(work / "spec.json")]
        process = subprocess.Popen(
            command, env=env, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = process.wait(timeout=max(budget, 10.0))
        except subprocess.TimeoutExpired:
            # The process group holds the workload's pool workers too.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return None, f"timed out after {budget:.0f} s"
        if code != 0:
            return None, f"workload process exited with code {code}"
        return json.loads(Path(spec["output"]).read_text()), None

    # -- checks and metrics --------------------------------------------
    def _summarize(self, kind, inputs, out, spec) -> dict:
        ops = out["ops"]
        failed: set = set()
        failures: list = []
        if out["error"] is not None:
            failures.append(f"operation {len(ops)} raised {out['error']}")
        with np.load(spec["factors"]) as data:
            factors = {key: data[key] for key in data.files}
        reference = {}
        for op in out.get("untraced_ops", []):
            reference.setdefault(op.get("epoch", -1), op["fingerprint"])
        for position, op in enumerate(ops):
            key = op.get("epoch", -1)
            expected = reference.setdefault(key, op["fingerprint"])
            if op["fingerprint"] != expected:
                failed.add(position)
                failures.append(
                    f"operation {position} is not bit-identical to the first "
                    f"{'solve' if key < 0 else f'run of epoch {key}'}"
                )
        if kind == "batch":
            self._check_batch(inputs, ops, factors, failed, failures)
        else:
            self._check_epochs(inputs, out, factors, failed, failures)
        attempted = len(ops) + (out["error"] is not None)
        n_failed = len(failed) + (out["error"] is not None)
        result = {
            "correct": n_failed == 0,
            "attempted": max(attempted, 1),
            "failed": n_failed,
            "failures": failures,
            "fingerprints": {
                ("solve" if op.get("epoch") is None else f"epoch-{op['epoch']}"):
                op["fingerprint"] for op in ops
            },
        }
        if self.args.trace:
            result["metrics"] = self._layer_metrics(out)
            result["extra"] = out["layers_extra"]
        else:
            result["metrics"], result["extra"] = self._e2e_metrics(out)
        result["extra"]["nnz"] = int(
            (inputs if kind == "batch" else inputs.tensor).nnz
        )
        if "budget_bytes" in out:
            result["extra"]["memory_budget_bytes"] = out["budget_bytes"]
        return result

    def _check_batch(self, tensor, ops, factors, failed, failures):
        from repro.metrics.error import reconstruction_error

        if not ops:
            return
        recount = reconstruction_error(tensor, _factors(factors, "final"))
        if recount != ops[-1]["error"]:
            failed.update(range(len(ops)))
            failures.append(
                f"reported error {ops[-1]['error']} != oracle recount {recount}"
            )

    def _check_epochs(self, stream, out, factors, failed, failures):
        from repro.metrics.error import reconstruction_error
        from repro.tensor import SparseBoolTensor

        epoch0 = set(out["epoch0_errors"])
        if len(epoch0) > 1:
            failures.append(f"epoch-0 errors differ across sessions: {sorted(epoch0)}")
            failed.update(range(len(out["ops"])))
        # A zero epoch-0 error means the planted structure was recovered, so
        # each later epoch's optimum is known exactly.
        exact = epoch0 == {0}
        errors = {}
        for position, op in enumerate(out["ops"]):
            errors.setdefault(op["epoch"], op["error"])
            if exact and op["error"] != stream.optima[op["epoch"]]:
                failed.add(position)
                failures.append(
                    f"epoch {op['epoch']} error {op['error']} != analytic "
                    f"optimum {stream.optima[op['epoch']]}"
                )
        recount = {
            int(key[len("epoch"):-len("_cols")])
            for key in factors if key.startswith("epoch") and key.endswith("_cols")
        }
        shape = stream.tensor.shape
        flats = np.ravel_multi_index(stream.tensor.coords.T, shape)
        for index, (added, removed) in enumerate(zip(stream.added, stream.removed)):
            if not recount or index > max(recount):
                break
            flats = np.union1d(np.setdiff1d(flats, removed, assume_unique=True), added)
            if index not in recount:
                continue
            tensor = SparseBoolTensor(shape, np.stack(np.unravel_index(flats, shape), axis=1))
            oracle = reconstruction_error(tensor, _factors(factors, f"epoch{index}"))
            if oracle != errors[index]:
                failed.update(
                    p for p, op in enumerate(out["ops"]) if op["epoch"] == index
                )
                failures.append(
                    f"epoch {index} reported error {errors[index]} != oracle "
                    f"recount {oracle}"
                )

    def _e2e_metrics(self, out):
        seconds = [op["seconds"] for op in out["ops"]]
        values = {}
        if out["setup_s"]:
            values["setup_s"] = (statistics.median(out["setup_s"]), len(out["setup_s"]))
        if seconds:
            values["op_s.p50"] = (statistics.median(seconds), len(seconds))
            values["ops_per_s"] = (len(seconds) / sum(seconds), len(seconds))
        values["peak_rss_mb"] = (out["peak_rss_mb"], 1)
        units = dict(END_TO_END)
        metrics = {
            name: {"value": value, "unit": units[name], "samples": n}
            for name, (value, n) in values.items()
        }
        extra = {
            "iterations": sorted({op["iterations"] for op in out["ops"]}),
            "setup_s.samples": out["setup_s"],
            "op_s.samples": seconds,
        }
        # The highest percentile with at least ten samples beyond it.
        if len(seconds) >= 20:
            p = math.floor(100 - 1000 / len(seconds))
            quantiles = statistics.quantiles(seconds, n=100, method="inclusive")
            extra[f"op_s.p{p}"] = quantiles[p - 1]
        return metrics, extra

    def _layer_metrics(self, out):
        return {
            name: {"value": value, "unit": self.w.layers.UNITS[name]}
            for name, value in out["layers"].items()
        }


def _factors(arrays: dict, prefix: str):
    """The three BitMatrix factors a workload process saved under ``prefix``."""
    from repro.bitops import BitMatrix

    cols = int(arrays[f"{prefix}_cols"][0])
    return tuple(
        BitMatrix(words.shape[0], cols, words)
        for words in (arrays[f"{prefix}_{mode}"] for mode in range(3))
    )


def _print_table(results: dict, trace: bool) -> None:
    print()
    if not trace:
        print(f"{'workload':<15}{'metric':<14}{'value':>14} {'unit':<6}{'samples':>8}")
        for name, result in results.items():
            for metric, entry in result["metrics"].items():
                print(f"{name:<15}{metric:<14}{entry['value']:>14.4f} "
                      f"{entry['unit']:<6}{entry['samples']:>8}")
            for metric, value in result.get("extra", {}).items():
                if metric.startswith("op_s.p"):
                    print(f"{name:<15}{metric:<14}{value:>14.4f} {'s':<6}"
                          f"{'(info)':>8}")
    for name, result in results.items():
        if trace and result["metrics"]:
            wall = result["metrics"]["trace.wall_s"]["value"]
            print(f"\n{name}: layer metrics (share = of traced wall {wall:.3f} s)")
            rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            rows += [
                (k, v, "s" if k.endswith((".s", "_s")) else "")
                for k, v in result["extra"].items()
            ]
            for metric, value, unit in rows:
                # Shares of the traced wall, for measured times inside it.
                share = (
                    f"{value / wall:>8.1%}"
                    if unit == "s" and wall and metric not in (
                        "trace.wall_s", "distengine.simulated_s"
                    ) else ""
                )
                print(f"  {metric:<42}{value:>16.6g} {unit:<6}{share}")
            unattributed = result["metrics"]["unattributed.s"]["value"]
            if wall and unattributed / wall > 0.10:
                print(f"  WARNING: unattributed share {unattributed / wall:.1%} > 10 %")
        for failure in result["failures"]:
            print(f"FAIL {name}: {failure}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found — run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    harness = Harness(args)
    names = list(harness.w.WORKLOADS)
    if args.workload is not None:
        if args.workload not in names:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        names = [args.workload]
    OUT.mkdir(exist_ok=True)
    results = {name: harness.run(name) for name in names}

    batch = [n for n in names if harness.w.WORKLOADS[n].kind == "batch"
             and results[n]["fingerprints"]]
    if len(batch) > 1:
        reference = results[batch[0]]["fingerprints"]["solve"]
        for name in batch[1:]:
            if results[name]["fingerprints"]["solve"] != reference:
                results[name]["correct"] = False
                results[name]["failed"] = results[name]["attempted"]
                results[name]["failures"].append(
                    f"factors/errors differ from {batch[0]}'s"
                )

    _print_table(results, bool(args.trace))
    report = {
        "seed": args.seed,
        "trace": args.trace,
        "scale": harness.scale,
        "seconds": harness.seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": results,
    }
    path = args.out or OUT / (
        f"results-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1))
    print(f"\nresults: {path}")

    def strip(metrics):
        return {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}

    if len(names) == 1:
        metrics = strip(results[names[0]]["metrics"])
    else:
        metrics = {
            f"{name}/{metric}": entry
            for name in names
            for metric, entry in strip(results[name]["metrics"]).items()
        }
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
