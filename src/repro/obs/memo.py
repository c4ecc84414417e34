"""One bounded LRU memo for every cross-call cache, plus a process-wide registry.

The solver stages (GP step, discretisation, allocation), the exact path's
relaxation and packing registries and the service's decoded-outcome,
routing and trace caches all memoize values under value keys.
:class:`BoundedMemo` is their single implementation of capacity, LRU
eviction, locking and hit/miss accounting.  A memo built with a ``name``
joins the process-wide registry: :func:`clear_all` empties every registered
memo (one call for a cold start) and :func:`memo_stats` reports their
counters (the service's ``/stats`` ``memos`` section).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, Hashable, TypeVar

V = TypeVar("V")

_MISSING = object()


class BoundedMemo(Generic[V]):
    """Thread-safe LRU map holding at most ``capacity`` entries.

    Recency is the dict's insertion order: a hit re-inserts its entry at
    the end and eviction pops the first.  A key that cannot be hashed is a
    miss and is never stored, so callers may build keys from arbitrary user
    objects without probing them first.
    """

    def __init__(self, capacity: int, name: str | None = None):
        if capacity < 1:
            raise ValueError(f"memo capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._entries: dict[Hashable, V] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if name is not None:
            with _REGISTRY_LOCK:
                _REGISTRY[name] = self

    def _lookup(self, key: Hashable) -> Any:
        """The entry under ``key`` (refreshed) or ``_MISSING``; lock held."""
        try:
            value = self._entries.pop(key, _MISSING)
        except TypeError:
            value = _MISSING
        if value is _MISSING:
            self.misses += 1
        else:
            self._entries[key] = value
            self.hits += 1
        return value

    def _store(self, key: Hashable, value: V) -> None:
        """Insert as most recent and evict the overflow; lock held."""
        try:
            self._entries.pop(key, None)
            self._entries[key] = value
        except TypeError:
            return
        while len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._lookup(key)
        return default if value is _MISSING else value

    def put(self, key: Hashable, value: V) -> None:
        with self._lock:
            self._store(key, value)

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        """The entry under ``key``, created by ``factory`` on a miss.

        Lookup and insert happen under one lock hold, so concurrent callers
        share one created value (registries of per-problem caches rely on
        this).
        """
        with self._lock:
            value = self._lookup(key)
            if value is _MISSING:
                value = factory()
                self._store(key, value)
        return value

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}


_REGISTRY: dict[str, BoundedMemo] = {}
_REGISTRY_LOCK = threading.Lock()


def _registered() -> list[tuple[str, BoundedMemo]]:
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY.items())


def clear_all() -> None:
    """Empty every named memo in this process: a cold start in one call."""
    for _, memo in _registered():
        memo.clear()


def memo_stats() -> dict[str, dict[str, int]]:
    """``{name: {"hits", "misses", "entries"}}`` for every named memo."""
    return {name: memo.stats() for name, memo in _registered()}
