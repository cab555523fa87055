"""Thread-safe LRU cache for reverse-skyline query results.

Production traffic repeats itself: the same probe objects are re-ranked,
the same dashboard queries re-fire. Reverse-skyline answers are pure
functions of (algorithm, physical layout, query, k), so the executor
memoises them in an LRU map keyed by exactly that tuple plus the engine's
*layout fingerprint* — a content hash of the dataset and its physical
order. A changed dataset yields a new fingerprint, so stale entries can
never be returned; :meth:`ResultCache.invalidate` additionally drops them
eagerly.

All operations take a single lock; the cached values (:class:`RSResult`)
are frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.base import RSResult
from repro.errors import ReproError
from repro.obs import hooks as _obs

__all__ = ["CacheKey", "CacheStats", "ResultCache"]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one memoisable query.

    ``fingerprint`` binds the entry to a specific dataset content and
    physical layout (see ``ReverseSkylineEngine.layout_fingerprint``);
    ``k`` is the skyband depth (1 for plain reverse skyline);
    ``attributes`` is the resolved attribute-index subset for Section 5.6
    queries (``None`` for full-schema queries).
    """

    kind: str
    algorithm: str
    fingerprint: str
    query: tuple
    k: int = 1
    attributes: tuple[int, ...] | None = None

    @classmethod
    def of(cls, engine, spec, fingerprint: str) -> "CacheKey":
        """The key ``spec`` caches under on ``engine`` at ``fingerprint``
        — the one construction the batch executor and the resident
        service share, so both paths key a query identically. Raises
        :class:`ReproError` for attributes the schema cannot resolve."""
        return cls(
            kind=spec.kind,
            algorithm=spec.algorithm or engine.default_algorithm,
            fingerprint=fingerprint,
            query=tuple(spec.query),
            k=spec.k,
            attributes=(
                engine._resolve_indices(spec.attributes)
                if spec.attributes is not None
                else None
            ),
        )


@dataclass
class CacheStats:
    """Counters for observability (snapshot via :meth:`ResultCache.stats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Inserts dropped because the cache was invalidated between the
    #: caller's miss and its ``put`` (see :meth:`ResultCache.put`).
    stale_rejects: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Bounded LRU map from :class:`CacheKey` to :class:`RSResult`."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, RSResult] = OrderedDict()
        self._stats = CacheStats()
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped by :meth:`invalidate`. Snapshot it
        before computing a missed entry and pass it to :meth:`put` so an
        invalidation that happened in between drops the insert instead of
        resurrecting a result computed against the old dataset state."""
        with self._lock:
            return self._version

    def get(self, key: CacheKey) -> RSResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self._stats.hits += 1
        if _obs.enabled:
            _obs.inc(
                "repro_result_cache_lookups_total",
                outcome="miss" if result is None else "hit",
            )
        return result

    def put(self, key: CacheKey, result: RSResult, *, version: int | None = None) -> None:
        """Insert one entry. ``version`` (from :attr:`version`, read at
        miss time) makes the insert conditional: if :meth:`invalidate`
        ran since, the entry is stale — its fingerprint was computed
        against the pre-invalidation dataset state — and is rejected
        rather than re-inserted under the old key."""
        evicted = 0
        with self._lock:
            if version is not None and version != self._version:
                self._stats.stale_rejects += 1
                if _obs.enabled:
                    _obs.inc("repro_result_cache_stale_rejects_total")
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
                evicted += 1
            size = len(self._entries)
        if _obs.enabled:
            _obs.inc("repro_result_cache_inserts_total")
            if evicted:
                _obs.inc("repro_result_cache_evictions_total", evicted)
            _obs.set_gauge("repro_result_cache_size", size)

    def invalidate(self) -> int:
        """Drop every entry (call when the dataset changes). Returns the
        number of entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stats.invalidations += 1
            self._version += 1
        if _obs.enabled:
            _obs.inc("repro_result_cache_invalidations_total")
            _obs.set_gauge("repro_result_cache_size", 0)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                self._stats.hits,
                self._stats.misses,
                self._stats.evictions,
                self._stats.invalidations,
                self._stats.stale_rejects,
            )
