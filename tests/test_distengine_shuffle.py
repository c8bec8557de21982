"""Unit tests for the shuffle ledger and the byte-size estimators."""

import numpy as np
import pytest

from repro.distengine import (
    ShuffleLedger,
    TransferKind,
    estimate_bytes,
    estimate_bytes_cached,
)


class TestShuffleLedger:
    def test_record_and_totals(self):
        ledger = ShuffleLedger()
        ledger.record(TransferKind.SHUFFLE, "stage-a", 100)
        ledger.record(TransferKind.SHUFFLE, "stage-b", 50)
        ledger.record(TransferKind.BROADCAST, "stage-a", 10)
        assert ledger.total_bytes == 160
        assert ledger.bytes_of_kind(TransferKind.SHUFFLE) == 150
        assert ledger.bytes_of_kind(TransferKind.BROADCAST) == 10
        assert ledger.by_stage["stage-a"] == 110

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ShuffleLedger().record("teleport", "s", 1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            ShuffleLedger().record(TransferKind.SHUFFLE, "s", -1)

    def test_missing_kind_reads_zero(self):
        assert ShuffleLedger().bytes_of_kind(TransferKind.COLLECT) == 0

    def test_reset(self):
        ledger = ShuffleLedger()
        ledger.record(TransferKind.COLLECT, "s", 5)
        ledger.reset()
        assert ledger.total_bytes == 0
        assert not ledger.by_stage

    def test_summary_has_all_kinds(self):
        ledger = ShuffleLedger()
        ledger.record(TransferKind.SHUFFLE, "s", 7)
        summary = ledger.summary()
        assert set(summary) == set(TransferKind.ALL)
        assert summary[TransferKind.SHUFFLE] == 7
        assert summary[TransferKind.BROADCAST] == 0


class TestEstimateBytesCached:
    def test_matches_uncached(self):
        value = np.arange(100, dtype=np.int64)
        assert estimate_bytes_cached(value) == estimate_bytes(value)

    def test_repeat_hits_cache(self):
        value = np.arange(10)
        first = estimate_bytes_cached(value)
        assert estimate_bytes_cached(value) == first

    def test_distinct_objects_sized_separately(self):
        small = np.arange(2, dtype=np.int64)
        large = np.arange(200, dtype=np.int64)
        assert estimate_bytes_cached(small) == 16
        assert estimate_bytes_cached(large) == 1600

    def test_non_weakrefable_falls_through(self):
        payload = {"words": np.arange(4)}
        assert estimate_bytes_cached(payload) == estimate_bytes(payload)
        assert estimate_bytes_cached([1, 2]) == estimate_bytes([1, 2])

    def test_none_is_zero(self):
        assert estimate_bytes_cached(None) == 0

    def test_cache_evicts_on_collection(self):
        import gc

        from repro.distengine.shuffle import _SIZE_CACHE

        value = np.arange(64)
        estimate_bytes_cached(value)
        key = id(value)
        assert key in _SIZE_CACHE
        del value
        gc.collect()
        assert key not in _SIZE_CACHE

    def test_plain_instance_payload(self):
        class Payload:
            def __init__(self):
                self.matrix = np.ones((8, 8))
                self.name = "p"

        payload = Payload()
        assert estimate_bytes_cached(payload) == estimate_bytes(payload)
        # second call served from the memo, same answer
        assert estimate_bytes_cached(payload) == estimate_bytes(payload)
