"""Shuffle observability: histogram, spill counter, per-bucket span events.

Every ``combine_by_key`` — spilling or not — must land one ``shuffle``
span event per reduce bucket (with bucket index, bytes, segment and spill
counts), observe each bucket's bytes into the ``shuffle_bucket_bytes``
histogram, and count spilled runs in ``shuffle_spill_total``.  Unbudgeted,
the per-bucket bytes must equal a driver-side dict-combine recount
(``tests/_shuffle_reference.py``).  The structure is pinned by a golden
fixture (``tests/goldens/shuffle_trace.json``, re-record with
--update-goldens) and must be bit-identical across the serial, thread,
and process backends.
"""

import json
import os

import numpy as np
import pytest

from repro.distengine import ClusterConfig, SimulatedRuntime, TransferKind
from repro.distengine.runtime import SHUFFLE_BYTE_BUCKETS
from repro.observability import MetricsRegistry, SpanKind, structural_tree

from ._shuffle_reference import reference_combine

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "shuffle_trace.json")

BACKENDS = ["serial", "thread", "process"]


def _copy(value):
    return value.copy() if hasattr(value, "copy") else value


def _add(left, right):
    return left + right


DATA = [(i % 9, np.arange(6, dtype=np.int64) + i) for i in range(180)]


def _traced_run(backend="serial", memory_budget=None) -> SimulatedRuntime:
    """A fixed keyed workload through combine_by_key with tracing on."""
    runtime = SimulatedRuntime(
        ClusterConfig(
            n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
            tracing=True, memory_budget=memory_budget,
        )
    )
    try:
        rdd = runtime.parallelize(DATA, n_partitions=6, name="kv")
        rdd.combine_by_key(_copy, _add, _add, n_partitions=4).glom()
    finally:
        runtime.close()
    return runtime


def _reference_bucket_bytes():
    return reference_combine(DATA, 6, 4, _copy, _add, _add)[1]


def _shuffle_events(runtime):
    return [
        span for span in runtime.tracer.spans
        if span.kind == SpanKind.SHUFFLE
    ]


def _structure_json(runtime) -> str:
    return json.dumps(
        structural_tree(runtime.tracer), indent=1, sort_keys=True
    )


def _histogram_snapshots(runtime, name):
    return {
        labels: snapshot
        for metric, labels, kind, snapshot in runtime.metrics.collect()
        if metric == name and kind == "histogram"
    }


class TestShuffleEvents:
    @pytest.mark.parametrize("spill", [True, False])
    def test_one_event_per_bucket(self, spill):
        runtime = _traced_run(memory_budget=2500 if spill else None)
        events = _shuffle_events(runtime)
        assert [event.attrs["bucket"] for event in events] == [0, 1, 2, 3]
        assert all(event.attrs["bytes"] >= 0 for event in events)

    def test_event_bytes_sum_to_ledger_charge(self):
        runtime = _traced_run()
        events = _shuffle_events(runtime)
        assert sum(event.attrs["bytes"] for event in events) == (
            runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        )

    def test_events_identical_across_paths(self):
        """Engine events carry the reference route's per-bucket bytes."""
        events = _shuffle_events(_traced_run())
        view = [(e.name, e.attrs["bucket"], e.attrs["bytes"]) for e in events]
        assert view == [
            ("kv.combineByKey", bucket, n_bytes)
            for bucket, n_bytes in enumerate(_reference_bucket_bytes())
        ]

    def test_spilled_buckets_flagged(self):
        runtime = _traced_run(memory_budget=2500)
        events = _shuffle_events(runtime)
        assert sum(event.attrs["spilled"] for event in events) > 0
        assert all(event.attrs["segments"] >= 1 for event in events)


class TestShuffleMetrics:
    def test_bucket_histogram_semantics(self):
        runtime = _traced_run()
        histograms = _histogram_snapshots(runtime, "shuffle_bucket_bytes")
        (labels, snapshot), = histograms.items()
        assert dict(labels)["stage"].endswith(".combineByKey")
        assert snapshot["count"] == 4
        assert snapshot["sum"] == (
            runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        )

    def test_histogram_identical_across_paths(self):
        """The histogram equals one fed the reference route's bucket bytes."""
        (snapshot,) = _histogram_snapshots(
            _traced_run(), "shuffle_bucket_bytes"
        ).values()
        reference = MetricsRegistry()
        histogram = reference.histogram(
            "shuffle_bucket_bytes", buckets=SHUFFLE_BYTE_BUCKETS
        )
        for n_bytes in _reference_bucket_bytes():
            histogram.observe(n_bytes)
        ((_, _, _, expected),) = reference.collect()
        assert snapshot == expected

    def test_spill_total_absent_without_budget(self):
        runtime = _traced_run()
        assert "shuffle_spill_total" not in runtime.metrics.counters()

    def test_spill_total_counts_runs(self):
        runtime = _traced_run(memory_budget=2500)
        spills = runtime.metrics.counters()["shuffle_spill_total"]
        assert sum(spills.values()) > 0


class TestGoldenShuffleTrace:
    def test_serial_trace_matches_golden(self, update_goldens):
        actual = _structure_json(_traced_run(memory_budget=2500)) + "\n"
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
                f"shuffle trace structure drifted from the golden fixture; "
                f"actual written to {actual_path} — if the change is "
                f"intentional, re-record with --update-goldens"
            )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_structure_backend_invariant(self, backend):
        serial = _structure_json(_traced_run(memory_budget=2500))
        other = _structure_json(
            _traced_run(backend=backend, memory_budget=2500)
        )
        assert other == serial
