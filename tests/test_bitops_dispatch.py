"""Kernel-dispatch tier: tiers, autotune cache, and observability.

Covers the dispatcher's tier semantics (fixed/auto/reference/forced), the
persistent autotune cache's failure modes (missing, corrupt, stale
version, other machine, concurrent writers), threshold overrides
replacing the hard-coded batch constant, configuration plumbing
(environment, ClusterConfig, CLI), and the dispatch observability
contract — ``kernel_span`` carrying the winning ``impl=`` label and
``kernel_dispatch_total`` incrementing — across all three backends.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.bitops import BitMatrix, boolean_matmul, dispatch
from repro.bitops.ops import _BATCH_MIN_ROWS, xor_popcount_rows
from repro.distengine import ClusterConfig, SimulatedRuntime

BACKENDS = ["serial", "thread", "process"]


@pytest.fixture(autouse=True)
def _clean_dispatcher():
    """Each test starts and ends with a pristine process-global dispatcher."""
    dispatch.reset_dispatcher(clear_env=True)
    yield
    dispatch.reset_dispatcher(clear_env=True)


def _matmul_shape(m=48, k=64, n=96):
    return (m, k, n)


# ----------------------------------------------------------------------
# Tier semantics
# ----------------------------------------------------------------------
class TestTiers:
    def test_fixed_tier_reproduces_legacy_heuristics(self):
        dispatcher = dispatch.KernelDispatcher(tier="fixed")
        below = _matmul_shape(m=_BATCH_MIN_ROWS - 1)
        at = _matmul_shape(m=_BATCH_MIN_ROWS)
        assert dispatcher.choose("boolean_matmul", below) == "rowloop"
        assert dispatcher.choose("boolean_matmul", at) == "batched"
        assert dispatcher.choose("khatri_rao", (8, 8, 16)) == "broadcast"
        assert dispatcher.choose("pointwise_vector_matrix", (64, 32)) == "mask"
        assert dispatcher.choose("xor_popcount", (64, 4)) == "fused"
        assert dispatcher.choose("xor_popcount_rows", (64, 4)) == "fused"

    def test_reference_tier_always_picks_reference(self):
        dispatcher = dispatch.KernelDispatcher(tier="reference")
        assert dispatcher.choose("boolean_matmul", _matmul_shape(m=4096)) == "rowloop"
        assert dispatcher.choose("khatri_rao", (8, 8, 16)) == "rowloop"
        assert dispatcher.choose("pointwise_vector_matrix", (64, 32)) == "rowloop"
        assert dispatcher.choose("xor_popcount", (64, 4)) == "twopass"

    def test_forced_impl_tier(self):
        dispatcher = dispatch.KernelDispatcher(tier="bulk")
        assert dispatcher.choose("boolean_matmul", _matmul_shape(m=2)) == "bulk"
        assert dispatcher.choose("khatri_rao", (8, 8, 16)) == "bulk"
        # Kernels without that impl fall back to the fixed-tier choice.
        assert dispatcher.choose("pointwise_vector_matrix", (64, 32)) == "mask"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            dispatch.KernelDispatcher(tier="warp-speed")

    def test_forced_tier_results_match_default(self):
        rng = np.random.default_rng(0)
        left = BitMatrix.random(40, 33, 0.4, rng)
        right = BitMatrix.random(33, 65, 0.4, rng)
        expected = boolean_matmul(left, right)
        for tier in ("reference", "bulk", "batched", "rowloop"):
            dispatch.configure(tier=tier)
            assert boolean_matmul(left, right) == expected, tier


# ----------------------------------------------------------------------
# Autotune cache persistence and failure modes
# ----------------------------------------------------------------------
class TestAutotuneCache:
    def test_autotune_persists_winners_and_thresholds(self, tmp_path):
        cache_path = tmp_path / "kernels.json"
        dispatcher = dispatch.KernelDispatcher(tier="auto", cache_path=cache_path)
        results = dispatcher.autotune(
            grid={"boolean_matmul": [(8, 16, 32), (256, 64, 256)]}, repeats=1
        )
        assert set(results["boolean_matmul"]) == {(8, 16, 32), (256, 64, 256)}
        document = json.loads(cache_path.read_text())
        assert document["version"] == dispatch.AutotuneCache.VERSION
        assert document["machine"] == dispatch.machine_fingerprint()
        matmul_entries = {
            key: entry for key, entry in document["entries"].items()
            if key.startswith("boolean_matmul/")
        }
        assert matmul_entries
        for entry in matmul_entries.values():
            assert entry["impl"] in {"rowloop", "batched", "bulk", "numba"}
            assert all(t >= 0 for t in entry["timings"].values())

    def test_cached_winner_reused_without_measuring(self, tmp_path):
        cache_path = tmp_path / "kernels.json"
        shape = (48, 64, 96)
        key = f"boolean_matmul/{dispatch.shape_class(shape)}"
        cache = dispatch.AutotuneCache(cache_path)
        cache.record(key, "bulk", {"bulk": 1e-6})
        cache.save()
        dispatcher = dispatch.KernelDispatcher(tier="auto", cache_path=cache_path)

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit must not re-measure")

        dispatcher._measure = _boom
        rng = np.random.default_rng(0)
        args = (BitMatrix.random(48, 64, 0.3, rng), BitMatrix.random(64, 96, 0.3, rng))
        assert dispatcher.resolve("boolean_matmul", shape, args).name == "bulk"

    def test_pinned_cache_makes_dispatch_deterministic(self, tmp_path):
        """A checked-in cache pins the winner regardless of live timings."""
        cache_path = tmp_path / "kernels.json"
        shape = (256, 64, 128)
        key = f"boolean_matmul/{dispatch.shape_class(shape)}"
        cache = dispatch.AutotuneCache(cache_path)
        cache.record(key, "rowloop", {"rowloop": 1.0})
        cache.save()
        for _ in range(3):
            dispatcher = dispatch.KernelDispatcher(tier="auto", cache_path=cache_path)
            assert dispatcher.choose("boolean_matmul", shape) == "rowloop"

    def test_auto_tier_measures_unseen_shape_and_persists(self, tmp_path):
        cache_path = tmp_path / "kernels.json"
        dispatcher = dispatch.KernelDispatcher(
            tier="auto", cache_path=cache_path, autotune_repeats=1
        )
        rng = np.random.default_rng(1)
        left = BitMatrix.random(24, 16, 0.3, rng)
        right = BitMatrix.random(16, 32, 0.3, rng)
        shape = (24, 16, 32)
        spec = dispatcher.resolve("boolean_matmul", shape, (left, right))
        assert spec.name in dispatch.kernel("boolean_matmul").impls
        # Persisted: a fresh dispatcher sees the winner without operands.
        rebuilt = dispatch.KernelDispatcher(tier="auto", cache_path=cache_path)
        assert rebuilt.choose("boolean_matmul", shape) == spec.name

    def test_missing_cache_falls_back_to_defaults(self, tmp_path):
        dispatcher = dispatch.KernelDispatcher(
            tier="auto", cache_path=tmp_path / "absent.json"
        )
        # No operands -> no measurement possible -> fixed-tier fallback.
        assert dispatcher.choose("boolean_matmul", (256, 64, 128)) == "batched"

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json at all",
            json.dumps([1, 2, 3]),
            json.dumps({"version": 999, "machine": "x", "entries": {}}),
            json.dumps({"version": 1, "machine": "someone-else",
                        "entries": {"boolean_matmul/9:7:8": {"impl": "bulk"}}}),
            json.dumps({"version": 1, "entries": "not-a-dict"}),
        ],
        ids=["corrupt", "wrong-type", "stale-version", "other-machine",
             "bad-entries"],
    )
    def test_defective_cache_ignored_without_error(self, tmp_path, payload):
        cache_path = tmp_path / "kernels.json"
        cache_path.write_text(payload)
        dispatcher = dispatch.KernelDispatcher(tier="auto", cache_path=cache_path)
        assert dispatcher.cache.entries == {}
        assert dispatcher.choose("boolean_matmul", (256, 64, 128)) == "batched"

    def test_threshold_override_replaces_batch_constant(self, tmp_path):
        """The cache's thresholds section retires _BATCH_MIN_ROWS."""
        cache_path = tmp_path / "kernels.json"
        cache = dispatch.AutotuneCache(cache_path)
        cache.update_thresholds({"boolean_matmul.batch_min_rows": 8})
        cache.save()
        dispatcher = dispatch.KernelDispatcher(tier="fixed", cache_path=cache_path)
        assert dispatcher.choose("boolean_matmul", (8, 64, 96)) == "batched"
        assert dispatcher.choose("boolean_matmul", (7, 64, 96)) == "rowloop"
        # Without the cache the compiled-in default still applies.
        bare = dispatch.KernelDispatcher(tier="fixed")
        assert bare.choose("boolean_matmul", (8, 64, 96)) == "rowloop"

    def test_concurrent_writers_never_torn_write(self, tmp_path):
        """Racing saves may lose a race but must always leave valid JSON."""
        cache_path = tmp_path / "kernels.json"
        n_writers = 8

        def write(worker):
            cache = dispatch.AutotuneCache(cache_path)
            for i in range(5):
                cache.record(f"k/{worker}:{i}", "bulk", {"bulk": 1e-6})
                cache.save()

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(n_writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        document = json.loads(cache_path.read_text())
        assert document["version"] == dispatch.AutotuneCache.VERSION
        assert document["entries"]
        # The atomic temp+rename pattern leaves no partial files behind.
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_directory_cache_path_gets_default_filename(self, tmp_path):
        cache = dispatch.AutotuneCache(tmp_path)
        assert cache.path == str(tmp_path / dispatch.CACHE_FILENAME)


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------
class TestConfiguration:
    def test_configure_exports_environment_for_workers(self, tmp_path):
        cache_path = tmp_path / "kernels.json"
        dispatch.configure(tier="reference", cache_path=cache_path)
        assert os.environ[dispatch.ENV_TIER] == "reference"
        assert os.environ[dispatch.ENV_CACHE] == str(cache_path)
        # A fresh process-global dispatcher (e.g. in a spawned worker)
        # reconstructs the same configuration from the environment.
        dispatch.reset_dispatcher()
        rebuilt = dispatch.get_dispatcher()
        assert rebuilt.tier == "reference"
        assert rebuilt.cache is not None
        assert rebuilt.cache.path == str(cache_path)

    def test_cluster_config_applies_tier_via_runtime(self):
        config = ClusterConfig(n_machines=2, kernel_tier="reference")
        with SimulatedRuntime(config):
            assert dispatch.get_dispatcher().tier == "reference"

    def test_cluster_config_with_kernel_tier_helper(self):
        config = ClusterConfig(n_machines=2).with_kernel_tier("auto", "/tmp/x.json")
        assert config.kernel_tier == "auto"
        assert config.autotune_cache == "/tmp/x.json"

    def test_cluster_config_rejects_empty_tier(self):
        with pytest.raises(ValueError, match="kernel_tier"):
            ClusterConfig(kernel_tier="")

    def test_cli_kernel_tier_flags(self, tmp_path):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(
            ["factorize", "t.tns", "--kernel-tier", "auto",
             "--autotune-cache", "c.json"]
        )
        assert args.kernel_tier == "auto"
        assert args.autotune_cache == "c.json"
        # An unknown tier is a usage error (exit code 2), not a traceback.
        tensor_path = tmp_path / "tiny.tns"
        assert main(["generate", "--kind", "random", "--shape", "8", "8", "8",
                     "--density", "0.2", "--out", str(tensor_path)]) == 0
        assert main(["factorize", str(tensor_path), "--rank", "2",
                     "--max-iterations", "1",
                     "--kernel-tier", "not-a-tier"]) == 2
        # A real tier runs end-to-end.
        assert main(["factorize", str(tensor_path), "--rank", "2",
                     "--max-iterations", "1",
                     "--kernel-tier", "reference"]) == 0


# ----------------------------------------------------------------------
# Observability: impl= span labels and kernel_dispatch_total
# ----------------------------------------------------------------------
def _kernel_probe_task(index, items):
    """Module-level (picklable) task: one matmul + one xor per partition."""
    seed = items[0]
    rng = np.random.default_rng(seed)
    left = BitMatrix.random(_BATCH_MIN_ROWS + 16, 12, 0.4, rng)
    right = BitMatrix.random(12, 9, 0.4, rng)
    product = boolean_matmul(left, right)
    totals = xor_popcount_rows(left.words, left.words)
    return [int(product.words.sum() % 1000003) + int(totals.sum())]


@pytest.mark.parametrize("backend", BACKENDS)
class TestDispatchObservability:
    def test_span_impl_label_and_dispatch_counter(self, backend):
        config = ClusterConfig(n_machines=2, backend=backend, tracing=True)
        with SimulatedRuntime(config) as runtime:
            results = runtime.run_stage(
                "kernelProbe", _kernel_probe_task, [(0, [0]), (1, [1])]
            )
        assert len(results) == 2

        matmul_spans = [
            span for span in runtime.tracer.spans
            if span.name == "boolean_matmul"
        ]
        assert len(matmul_spans) == 2
        for span in matmul_spans:
            # 48 rows >= the batched threshold: the fixed tier must have
            # picked (and labelled) the batched implementation.
            assert span.attrs["impl"] == "batched"
            assert span.attrs["m"] == _BATCH_MIN_ROWS + 16

        assert runtime.metrics.value(
            "kernel_dispatch_total",
            kernel="boolean_matmul", impl="batched", tier="fixed",
        ) == 2.0
        assert runtime.metrics.value(
            "kernel_dispatch_total",
            kernel="xor_popcount_rows", impl="fused", tier="fixed",
        ) == 2.0

    def test_counter_totals_invariant_across_repeat_runs(self, backend):
        def run():
            config = ClusterConfig(n_machines=2, backend=backend, tracing=True)
            with SimulatedRuntime(config) as runtime:
                runtime.run_stage(
                    "kernelProbe", _kernel_probe_task,
                    [(i, [i]) for i in range(4)],
                )
            return runtime.metrics.value(
                "kernel_dispatch_total",
                kernel="boolean_matmul", impl="batched", tier="fixed",
            )

        assert run() == run() == 4.0


# ----------------------------------------------------------------------
# End-to-end: tiers never change factors or errors
# ----------------------------------------------------------------------
class TestEndToEndEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dbtf_identical_under_reference_tier(self, backend):
        from repro.core import dbtf
        from repro.tensor import planted_tensor

        tensor, _ = planted_tensor(
            (16, 16, 16), rank=3, factor_density=0.3,
            rng=np.random.default_rng(5),
        )

        cluster = ClusterConfig(backend=backend)
        dispatch.configure(tier="fixed")
        baseline = dbtf(tensor, rank=3, seed=1, max_iterations=2,
                        cluster=cluster)
        dispatch.configure(tier="reference")
        referenced = dbtf(tensor, rank=3, seed=1, max_iterations=2,
                          cluster=cluster)

        assert referenced.error == baseline.error
        assert referenced.errors_per_iteration == baseline.errors_per_iteration
        for ours, theirs in zip(referenced.factors, baseline.factors):
            assert np.array_equal(ours.to_dense(), theirs.to_dense())

    def test_dbtf_identical_under_auto_tier(self, tmp_path):
        from repro.core import dbtf
        from repro.tensor import planted_tensor

        tensor, _ = planted_tensor(
            (16, 16, 16), rank=3, factor_density=0.3,
            rng=np.random.default_rng(5),
        )

        dispatch.configure(tier="fixed")
        baseline = dbtf(tensor, rank=3, seed=1, max_iterations=2)
        dispatch.configure(tier="auto", cache_path=tmp_path / "kernels.json")
        tuned = dbtf(tensor, rank=3, seed=1, max_iterations=2)

        assert tuned.error == baseline.error
        for ours, theirs in zip(tuned.factors, baseline.factors):
            assert np.array_equal(ours.to_dense(), theirs.to_dense())
