"""Smoke test of the end-to-end benchmark (toy sizes, well under a minute).

    python -m pytest benchmarks/e2e/test_e2e.py -q

Checks that every metric ``BENCHMARK.json`` names is emitted for every
workload, that the traced run computes bit-identical factors and errors
(so the layer wrappers change nothing), and that the benchmark refuses to
run without the program next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(out: Path, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), "--smoke",
         "--seed", "0", "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _report(tmp_path: Path, *args: str):
    out = tmp_path / "results.json"
    process = _run(out, *args)
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("traced"), "--trace", "1")


def _check_metrics(report, declared):
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in report["workloads"].items():
        assert result["correct"], (name, result["failures"])
        emitted = {key: entry["unit"] for key, entry in result["metrics"].items()}
        assert emitted == units, name


def test_every_end_to_end_metric_is_emitted(untraced):
    line, report = untraced
    _check_metrics(report, SPEC["end_to_end"])
    for result in report["workloads"].values():
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0


def test_every_per_layer_metric_is_emitted(traced):
    _check_metrics(traced[1], SPEC["per_layer"])


def test_tracing_changes_no_result(untraced, traced):
    for name, result in untraced[1]["workloads"].items():
        plain = result["fingerprints"]
        instrumented = traced[1]["workloads"][name]["fingerprints"]
        shared = set(plain) & set(instrumented)
        assert shared, name
        assert {k: plain[k] for k in shared} == {
            k: instrumented[k] for k in shared
        }, name


def test_single_workload_prints_the_contract_line(tmp_path):
    process = _run(tmp_path / "one.json", "--workload", "epoch-stream")
    assert process.returncode == 0, process.stderr
    line = json.loads(process.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns(".out", "__pycache__"),
        )
    process = _run(tmp_path / "none.json", cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()
