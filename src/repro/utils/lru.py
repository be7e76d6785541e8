"""A bounded least-recently-used map: the serve workspace's cache tiers."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded least-recently-used map with hit/miss/eviction accounting
    (:meth:`stats`)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()
        # Concurrent connection threads share the workspace tiers; an RLock is
        # enough because entries are never mutated in place under the
        # lock, only looked up / inserted / evicted.
        self._lock = threading.RLock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> int:
        """Insert; returns how many entries that evicted."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            evicted = 0
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
                self.evictions += 1
            return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
