"""Unit tests for the storage tier's memory budget and size helpers."""

import pytest

from repro.observability import MetricsRegistry
from repro.storage import MemoryBudget, format_size, parse_memory_size


class TestParseMemorySize:
    @pytest.mark.parametrize("text,expected", [
        ("4096", 4096),
        ("64K", 64 * 1024),
        ("64KB", 64 * 1024),
        ("2M", 2 * 1024 ** 2),
        ("1.5G", int(1.5 * 1024 ** 3)),
        ("1T", 1024 ** 4),
        (" 8 k ", 8 * 1024),
        (12345, 12345),
    ])
    def test_valid(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "64Q", "abc", "12.3.4M", "-5M", "0"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)

    def test_format_round_numbers(self):
        assert format_size(512) == "512 B"
        assert format_size(12 * 1024 ** 2) == "12.0 MiB"
        assert format_size(3 * 1024 ** 3) == "3.0 GiB"


class TestMemoryBudget:
    def test_charge_release_and_peak(self):
        budget = MemoryBudget(1000)
        budget.charge(400)
        budget.charge(300)
        assert budget.resident_bytes == 700
        assert budget.peak_resident == 700
        budget.release(600)
        assert budget.resident_bytes == 100
        assert budget.peak_resident == 700  # high-water mark stays
        assert budget.total_charged == 700

    def test_fits_and_available(self):
        budget = MemoryBudget(100)
        assert budget.fits(100)
        budget.charge(60)
        assert budget.fits(40)
        assert not budget.fits(41)

    def test_over_release_raises(self):
        budget = MemoryBudget(100)
        budget.charge(10)
        with pytest.raises(ValueError, match="accounting bug"):
            budget.release(11)

    def test_negative_amounts_raise(self):
        budget = MemoryBudget(100)
        with pytest.raises(ValueError):
            budget.charge(-1)
        with pytest.raises(ValueError):
            budget.release(-1)

    def test_non_positive_limit_raises(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_spill_and_load_accounting(self):
        budget = MemoryBudget(100)
        budget.count_spill(64)
        budget.count_spill(32)
        budget.count_load()
        assert budget.spilled_bytes == 96
        assert budget.spill_events == 2
        assert budget.load_events == 1

    def test_metrics_wired(self):
        registry = MetricsRegistry()
        budget = MemoryBudget(1000, metrics=registry)
        budget.charge(250)
        budget.count_spill(64)
        budget.count_load()
        assert registry.value("storage_bytes_resident") == 250.0
        assert registry.value("storage_bytes_spilled_total") == 64.0
        assert registry.value("storage_spill_events_total") == 1.0
        assert registry.value("storage_load_events_total") == 1.0
        budget.release(250)
        assert registry.value("storage_bytes_resident") == 0.0
