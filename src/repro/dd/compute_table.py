"""Fixed-size, slot-indexed compute tables for memoized DD operations.

The seed package memoized operation results in unbounded Python dicts and
cleared a table *wholesale* the moment it crossed a size limit — in the
middle of a recursion, a long alternating run would periodically lose its
entire memoization and re-derive every sub-product from scratch.

Real QMDD packages instead use a fixed array of slots: the key hashes to
one slot, a collision simply overwrites that slot, and every other entry
stays hot.  Lookups and inserts are O(1), memory is bounded by
construction, and an unlucky collision costs one recomputation instead of
a full cold start.  :class:`ComputeTable` implements exactly that scheme,
with an optional *unbounded* mode (``size=None``, a plain dict) retained
for A/B ablations.

Keys must be hashable and cheap to compare — the package uses tuples of
integers (node handles and interned complex-weight ids from
:class:`repro.dd.complex_table.ComplexTable`).

The slot array is allocated lazily on the first insert, so packages that
never touch an operation (most test fixtures) pay nothing for its table.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

#: Default number of slots per compute table (power of two).
DEFAULT_COMPUTE_TABLE_SIZE = 1 << 14


def _round_up_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


class ComputeTable:
    """One memoization table: hash-indexed slots with overwrite-on-collision.

    Args:
        name: Label used in statistics reporting.
        size: Number of slots (rounded up to a power of two), or ``None``
            for an unbounded dict-backed table.
    """

    __slots__ = (
        "name", "_mask", "_slots", "_dict", "_entries",
        "hits", "misses", "evictions",
    )

    def __init__(
        self, name: str = "", size: Optional[int] = DEFAULT_COMPUTE_TABLE_SIZE
    ) -> None:
        if size is not None and size < 1:
            raise ValueError("compute table size must be positive or None")
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = 0
        if size is None:
            self._mask = None
            self._slots = None
            self._dict: Optional[Dict[Hashable, Any]] = {}
        else:
            self._mask = _round_up_power_of_two(size) - 1
            self._slots = None  # allocated lazily on first put
            self._dict = None

    @property
    def bounded(self) -> bool:
        """True if this table has a fixed number of slots."""
        return self._dict is None

    @property
    def size(self) -> Optional[int]:
        """Slot count of a bounded table, ``None`` if unbounded."""
        return None if self._mask is None else self._mask + 1

    def __len__(self) -> int:
        if self._dict is not None:
            return len(self._dict)
        return self._entries

    def get(self, key: Hashable) -> Any:
        """Return the memoized value for ``key`` or ``None`` on a miss."""
        if self._dict is not None:
            value = self._dict.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value
        if self._slots is not None:
            entry = self._slots[hash(key) & self._mask]
            if entry is not None and entry[0] == key:
                self.hits += 1
                return entry[1]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Memoize ``value`` under ``key`` (collisions overwrite the slot)."""
        if self._dict is not None:
            self._dict[key] = value
            return
        slots = self._slots
        if slots is None:
            slots = self._slots = [None] * (self._mask + 1)
        slot = hash(key) & self._mask
        entry = slots[slot]
        if entry is None:
            self._entries += 1
        elif entry[0] != key:
            self.evictions += 1
        slots[slot] = (key, value)

    def clear(self) -> None:
        """Drop all memoized entries (statistics are reset too)."""
        if self._dict is not None:
            self._dict.clear()
        else:
            self._slots = None
        self._entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "unbounded" if self._dict is not None else f"{self._mask + 1} slots"
        return f"ComputeTable({self.name!r}, {kind}, {len(self)} entries)"
