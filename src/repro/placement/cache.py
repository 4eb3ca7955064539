"""LRU prediction cache keyed by canonical colocation keys.

Interference predictions are pure functions of the colocation *multiset*:
which games run together at which resolutions (plus the QoS floor for CM
verdicts).  Entry order carries no information — the Eq. 5 aggregate is
symmetric in the co-runners — so keys are canonicalized by
:func:`repro.placement.signature.colocation_key` (sorted entries), making
``(A, B)`` and ``(B, A)`` one cache line.  This is the cache-key
contract: two colocations with equal entry multisets and equal QoS
floors always share a key, and invalidating any permutation of a
co-runner set therefore evicts every permutation at once.

The store is a plain LRU over an :class:`collections.OrderedDict` with
monotonic hit/miss/eviction statistics, sized for the serving hot path
where the same few hundred server signatures recur across thousands of
arrivals.

Its ``generation`` stamp changes whenever it forgets or overwrites a
key; the policies' per-group verdict memo
(:class:`~repro.placement.signature.SignatureGroup`) is valid only
while it has not.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import count
from typing import Any

from repro.placement.signature import colocation_key

__all__ = ["colocation_key", "PredictionCache"]

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISS = object()

#: One process-wide source of generations: no two caches, and no two
#: states of one cache, ever share a value.
_GENERATIONS = count()


class PredictionCache:
    """Bounded LRU cache for per-colocation prediction results.

    ``capacity=0`` disables caching (every lookup misses, nothing is
    stored), which keeps the serving code path uniform when caching is
    turned off for measurement.

    ``generation`` goes up whenever an entry is forgotten or overwritten
    (eviction, :meth:`invalidate`, :meth:`clear`, a :meth:`put` over an
    existing key); hits, misses and a ``put`` that evicts nothing leave
    it alone.  While it is unchanged, every key that was present still
    holds the value it had.  A memo answer stands in for a probe that
    would hit, but is no probe: it counts no hit and does not refresh the
    entry's LRU position.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._store: OrderedDict[tuple, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self.generation = next(_GENERATIONS)

    # ------------------------------------------------------------------

    def lookup(self, key: tuple, default: Any = None) -> Any:
        """Return the cached value for ``key`` (counting a hit) or ``default``."""
        value = self._store.get(key, _MISS)
        if value is _MISS:
            self._misses += 1
            return default
        self._hits += 1
        self._store.move_to_end(key)
        return value

    def lookup_many(self, keys, default: Any = None) -> list:
        """:meth:`lookup` of each of ``keys``, in order, as one call.

        A cache subclass must define its own, or its per-key behaviour (a
        log line, a counter) silently leaves the policies' probe path.
        """
        store, miss = self._store, _MISS
        values = []
        for key in keys:
            value = store.get(key, miss)
            if value is miss:
                self._misses += 1
                values.append(default)
            else:
                self._hits += 1
                store.move_to_end(key)
                values.append(value)
        return values

    def __contains__(self, key: tuple) -> bool:
        return key in self._store

    def put(self, key: tuple, value: Any) -> None:
        """Insert or refresh ``key``, evicting the least recently used entry."""
        if self.capacity == 0:
            return
        if key in self._store:
            self._store.move_to_end(key)
            self.generation = next(_GENERATIONS)
        self._store[key] = value
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self._evictions += 1
            self.generation = next(_GENERATIONS)

    def invalidate(self, key: tuple) -> bool:
        """Drop ``key`` if present (returns whether an entry was removed).

        Invalidation is the *semantic* removal path — a profile was
        re-measured, a model was retrained — counted separately from
        capacity evictions.
        """
        if key not in self._store:
            return False
        del self._store[key]
        self._invalidations += 1
        self.generation = next(_GENERATIONS)
        return True

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries (statistics are preserved — they are monotonic)."""
        self._store.clear()
        self.generation = next(_GENERATIONS)

    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that found nothing."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped to respect ``capacity``."""
        return self._evictions

    @property
    def invalidations(self) -> int:
        """Entries dropped explicitly via :meth:`invalidate`."""
        return self._invalidations

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-able statistics snapshot."""
        return {
            "capacity": self.capacity,
            "size": len(self._store),
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "hit_rate": self.hit_rate,
        }
