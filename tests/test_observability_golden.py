"""Golden-trace regression and backend-invariance tests.

A fixed-seed DBTF run must produce exactly the span structure recorded in
``tests/goldens/dbtf_serial_trace.json`` (durations excluded — they are
host wall-clock).  Any intentional change to stage layout, kernel
instrumentation, or transfer attribution is made visible here and
re-recorded with ``pytest --update-goldens``.  On mismatch the actual
structure is written next to the golden (``*.actual.json``) so CI can
upload it as an artifact.

The same structural snapshot must be bit-identical across the serial and
process backends — the central contract of the observability
layer (ISSUE: trace structure invariance).
"""

import json
import os

import numpy as np
import pytest

from repro.core import dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.observability import structural_tree
from repro.tensor import planted_tensor

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "dbtf_serial_trace.json")

#: Counters whose merged totals must match across backends.  Time-valued
#: metrics (histograms, gauges) are excluded by construction.
INVARIANT_COUNTERS = (
    "stages_total",
    "tasks_total",
    "task_failures_total",
    "transfer_bytes_total",
    "cache_tables_built_total",
    "cache_entries_total",
    "cache_fetches_total",
    "bitmatrix_ops_total",
    "kernel_dispatch_total",
)


def _traced_run(backend: str) -> SimulatedRuntime:
    """Fixed-seed DBTF on a small planted tensor with tracing on."""
    tensor, _ = planted_tensor(
        (10, 10, 10), rank=2, factor_density=0.3,
        rng=np.random.default_rng(7),
    )
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                      tracing=True)
    )
    try:
        dbtf(tensor, rank=2, max_iterations=2, n_partitions=3, seed=0,
             runtime=runtime)
    finally:
        runtime.close()
    return runtime


def _structure_json(runtime: SimulatedRuntime) -> str:
    return json.dumps(structural_tree(runtime.tracer), indent=1,
                      sort_keys=True)


def _invariant_counters(runtime: SimulatedRuntime) -> dict:
    return {
        name: values
        for name, values in runtime.metrics.counters().items()
        if name in INVARIANT_COUNTERS
    }


class TestGoldenTrace:
    def test_serial_trace_matches_golden(self, update_goldens):
        actual = _structure_json(_traced_run("serial")) + "\n"
        if update_goldens:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
                handle.write(actual)
            pytest.skip("golden updated")
        assert os.path.exists(GOLDEN_PATH), (
            f"golden fixture missing; record it with "
            f"pytest {os.path.basename(__file__)} --update-goldens"
        )
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            expected = handle.read()
        if actual != expected:
            actual_path = GOLDEN_PATH.replace(".json", ".actual.json")
            with open(actual_path, "w", encoding="utf-8") as handle:
                handle.write(actual)
            raise AssertionError(
                f"trace structure drifted from the golden fixture; "
                f"actual written to {actual_path} — if the change is "
                f"intentional, re-record with --update-goldens"
            )


class TestBackendInvariance:
    @pytest.fixture(scope="class")
    def serial_run(self):
        return _traced_run("serial")

    @pytest.mark.parametrize("backend", ["process"])
    def test_trace_structure_identical(self, serial_run, backend):
        other = _traced_run(backend)
        assert _structure_json(other) == _structure_json(serial_run)

    @pytest.mark.parametrize("backend", ["process"])
    def test_counters_identical(self, serial_run, backend):
        other = _traced_run(backend)
        assert _invariant_counters(other) == _invariant_counters(serial_run)

    def test_span_kinds_present(self, serial_run):
        kinds = {span.kind for span in serial_run.tracer.spans}
        assert kinds == {"stage", "task", "kernel", "transfer"}
