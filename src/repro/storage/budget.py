"""Process-wide memory budget with tracked allocation accounting.

The storage tier never inspects the host's real RSS — that would make spill
decisions racy and backend-dependent.  Instead every byte the tier holds
resident is *charged* to a :class:`MemoryBudget` when admitted and
*released* when spilled or discarded, all on the driver thread.  Spill
decisions are therefore a pure function of the admit/release sequence,
which is identical under the serial and process backends — the
same determinism argument the shuffle ledger makes for byte accounting.

Observability (all strictly gated on the tier being enabled, so a run with
``memory_budget=None`` reports zero storage metrics):

* ``storage_bytes_resident`` (gauge) — currently charged bytes;
* ``storage_bytes_spilled_total`` (counter) — bytes written to spill files;
* ``storage_spill_events_total`` (counter) — spill (eviction) count;
* ``storage_load_events_total`` (counter) — loads of spilled entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..observability import MetricsRegistry

__all__ = ["MemoryBudget", "parse_memory_size", "format_size"]

_SUFFIX_FACTORS = {
    "": 1,
    "B": 1,
    "K": 1024,
    "KB": 1024,
    "M": 1024 ** 2,
    "MB": 1024 ** 2,
    "G": 1024 ** 3,
    "GB": 1024 ** 3,
    "T": 1024 ** 4,
    "TB": 1024 ** 4,
}


def parse_memory_size(text: "str | int") -> int:
    """Parse a human memory size (``"64M"``, ``"1.5G"``, ``"4096"``) to bytes.

    Suffixes are binary (K = 1024) and case-insensitive; a bare number is
    bytes.  Raises :class:`ValueError` on anything else, including
    non-positive sizes — a zero budget would spill every admit forever.
    """
    if isinstance(text, int):
        value, factor = float(text), 1
    else:
        cleaned = text.strip().upper()
        split = len(cleaned)
        while split > 0 and cleaned[split - 1].isalpha():
            split -= 1
        number, suffix = cleaned[:split].strip(), cleaned[split:]
        if suffix not in _SUFFIX_FACTORS:
            raise ValueError(f"unknown memory-size suffix {suffix!r} in {text!r}")
        try:
            value = float(number)
        except ValueError:
            raise ValueError(f"invalid memory size {text!r}") from None
        factor = _SUFFIX_FACTORS[suffix]
    n_bytes = int(value * factor)
    if n_bytes <= 0:
        raise ValueError(f"memory size must be positive, got {text!r}")
    return n_bytes


def format_size(n_bytes: int) -> str:
    """Human rendering of a byte count (``"12.0 MiB"``), for logs and docs."""
    value = float(n_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


class MemoryBudget:
    """Tracked allocation accounting for the storage tier.

    ``limit_bytes`` is the hard ceiling on tracked resident bytes.  The
    budget itself only counts; the :class:`~repro.storage.spill.
    PartitionSpillStore` enforces the ceiling by spilling before charging,
    so :attr:`peak_resident` never exceeds the limit — the invariant
    ``benchmarks/bench_storage.py`` asserts throughout a factorization.
    """

    __slots__ = (
        "limit_bytes",
        "resident_bytes",
        "peak_resident",
        "total_charged",
        "spilled_bytes",
        "spill_events",
        "load_events",
        "metrics",
    )

    def __init__(
        self,
        limit_bytes: int,
        metrics: "MetricsRegistry | None" = None,
    ):
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self.resident_bytes = 0
        #: High-water mark of tracked resident bytes over the budget's life.
        self.peak_resident = 0
        #: Cumulative bytes ever charged — the tracked working set, which
        #: keeps growing as entries are admitted, spilled, and reloaded.
        self.total_charged = 0
        self.spilled_bytes = 0
        self.spill_events = 0
        self.load_events = 0
        self.metrics = metrics

    def fits(self, n_bytes: int) -> bool:
        """Whether charging ``n_bytes`` more would stay within the limit."""
        return self.resident_bytes + n_bytes <= self.limit_bytes

    def charge(self, n_bytes: int) -> None:
        """Account ``n_bytes`` as resident (admit or reload)."""
        if n_bytes < 0:
            raise ValueError(f"negative charge {n_bytes}")
        self.resident_bytes += n_bytes
        self.total_charged += n_bytes
        if self.resident_bytes > self.peak_resident:
            self.peak_resident = self.resident_bytes
        self._set_resident_gauge()

    def release(self, n_bytes: int) -> None:
        """Un-account ``n_bytes`` (spill or discard)."""
        if n_bytes < 0:
            raise ValueError(f"negative release {n_bytes}")
        if n_bytes > self.resident_bytes:
            raise ValueError(
                f"releasing {n_bytes} bytes but only {self.resident_bytes} "
                f"are charged — storage accounting bug"
            )
        self.resident_bytes -= n_bytes
        self._set_resident_gauge()

    def count_spill(self, n_bytes: int) -> None:
        """Record one spill (eviction) that wrote ``n_bytes`` to disk."""
        self.spilled_bytes += n_bytes
        self.spill_events += 1
        if self.metrics is not None:
            self.metrics.counter("storage_bytes_spilled_total").inc(n_bytes)
            self.metrics.counter("storage_spill_events_total").inc()

    def count_load(self) -> None:
        """Record one load of a spilled entry back into memory."""
        self.load_events += 1
        if self.metrics is not None:
            self.metrics.counter("storage_load_events_total").inc()

    def _set_resident_gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("storage_bytes_resident").set(
                float(self.resident_bytes)
            )

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(resident={format_size(self.resident_bytes)}, "
            f"limit={format_size(self.limit_bytes)}, "
            f"spills={self.spill_events})"
        )
