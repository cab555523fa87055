"""Process-wide plan cache for immutable compute-backend artifacts.

The numpy backend's expensive structures — the columnar CSR AL-Tree
arrays of the phase-1 batch plan, the collapsed leaf min-tables, the
dissimilarity matrices and the flat scan arrays — depend only on
*(dataset contents, physical layout, memory budget, page size)*, never
on a query.  ``VectorTRS`` already memoises them per instance; this
module lifts that memo to the whole process so the build cost is paid
once per *layout*, not once per algorithm instance:

- a fresh engine over the same dataset (a second executor, a pool
  worker after fork, a re-opened CLI session) finds the plan ready;
- the zero-copy shm layer (:mod:`repro.exec.shm`) imports a published
  plan straight into this cache on the worker side, so process-pool
  workers skip the build entirely.

Keys embed :func:`plan_fingerprint` — a content hash over the layout
entries *and* the dissimilarity matrices — so two datasets that share
records but differ in their non-metric dissimilarities can never serve
each other's artifacts (the engine's ``layout_fingerprint`` hashes only
records, which is fine for result caching but not for plan reuse).

The cache is byte-bounded LRU (default 256 MiB, configurable via
:func:`configure`); sizes come from :func:`artifact_nbytes`, a
conservative walker over the numpy arrays an artifact holds.  All
operations are thread-safe and observable through :mod:`repro.obs`
(``repro_plan_cache_lookups_total{outcome=hit|miss}``,
``repro_plan_cache_evictions_total``, ``repro_plan_cache_bytes`` /
``repro_plan_cache_entries`` gauges).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import hooks as _obs

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "PlanKey",
    "artifact_nbytes",
    "configure",
    "plan_cache",
    "plan_fingerprint",
]

#: Default capacity of the process-wide cache.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class PlanKey:
    """Identity of one cached artifact.

    ``artifact`` names the kind (``"dissim"``, ``"phase1"``, ``"scan"``);
    ``fingerprint`` is the :func:`plan_fingerprint` of the (dataset,
    layout) pair; ``params`` carries whatever build inputs the artifact
    additionally depends on (budget pages, page bytes) as a flat tuple.
    """

    artifact: str
    fingerprint: str
    params: tuple = ()


@dataclass(frozen=True)
class PlanCacheStats:
    hits: int
    misses: int
    evictions: int
    oversize_skips: int
    entries: int
    bytes: int
    capacity_bytes: int


def plan_fingerprint(dataset, layout) -> str:
    """Content hash of a (dataset, layout) pair for plan keying.

    Covers the dissimilarity structure (matrix bytes for matrix-backed
    attributes, the repr otherwise) plus every layout entry, so a plan
    built for one non-metric space can never answer for another — even
    one over identical records.
    """
    from repro.dissim.matrix import MatrixDissimilarity

    h = hashlib.blake2b(digest_size=16)
    h.update(f"{dataset.name}|{len(layout)}|{dataset.num_attributes}|".encode())
    for d in dataset.space.dissims:
        if isinstance(d, MatrixDissimilarity):
            import numpy as np

            h.update(np.ascontiguousarray(d.matrix, dtype=float).tobytes())
        else:  # non-matrix spaces never reach the vector paths today
            h.update(repr(d).encode())
        h.update(b"|")
    for rid, values in layout:
        h.update(repr((rid, values)).encode())
    return h.hexdigest()


def artifact_nbytes(obj) -> int:
    """Conservative byte size of an artifact: the sum of every distinct
    numpy array reachable from it (lists/tuples/dicts/dataclasses), plus
    a small per-python-object overhead for everything else."""
    import numpy as np

    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if x is None or isinstance(x, (int, float, bool, str, bytes)):
            total += 32
            continue
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            total += int(x.nbytes) + 96
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            total += 56 + 8 * len(x) if isinstance(x, (list, tuple)) else 56
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
        elif hasattr(x, "__slots__"):
            stack.extend(
                getattr(x, s) for s in x.__slots__ if hasattr(x, s)
            )
        else:
            total += 64
    return total


class PlanCache:
    """Byte-bounded, thread-safe LRU of immutable plan artifacts."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        self.capacity_bytes = int(capacity_bytes)
        self._entries: OrderedDict[PlanKey, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._oversize_skips = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: PlanKey):
        """The cached artifact for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                if _obs.enabled:
                    _obs.inc("repro_plan_cache_lookups_total", 1, outcome="miss")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        if _obs.enabled:
            _obs.inc("repro_plan_cache_lookups_total", 1, outcome="hit")
        return entry[0]

    def put(self, key: PlanKey, value) -> None:
        """Insert (or refresh) one artifact. Artifacts larger than the
        whole capacity are skipped rather than wiping the cache."""
        nbytes = artifact_nbytes(value)
        if nbytes > self.capacity_bytes:
            with self._lock:
                self._oversize_skips += 1
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self._evictions += 1
                evicted += 1
            entries, total = len(self._entries), self._bytes
        if _obs.enabled:
            if evicted:
                _obs.inc("repro_plan_cache_evictions_total", evicted)
            _obs.set_gauge("repro_plan_cache_bytes", float(total))
            _obs.set_gauge("repro_plan_cache_entries", float(entries))

    def get_or_build(self, key: PlanKey, builder):
        """``get`` or build-and-``put`` (the build runs outside the lock;
        concurrent builders may race but converge on identical artifacts —
        they are pure functions of the key)."""
        value = self.get(key)
        if value is not None:
            return value
        value = builder()
        self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
        if _obs.enabled:
            _obs.set_gauge("repro_plan_cache_bytes", 0.0)
            _obs.set_gauge("repro_plan_cache_entries", 0.0)

    def invalidate_fingerprint(self, fingerprint: str) -> tuple[int, int]:
        """Surgically drop every artifact keyed under ``fingerprint``.

        The maintenance layer calls this at compaction time: only plans
        built over the compacted base layout are stale; everything else
        in the process-wide cache (other datasets, other layouts of the
        same dataset) stays warm. Between compactions nothing is dropped
        at all — update epochs ride the overlay, and plan keys embed the
        *base* fingerprint, which mutation batches do not change.

        Returns ``(dropped, retained)`` entry counts.
        """
        with self._lock:
            stale = [k for k in self._entries if k.fingerprint == fingerprint]
            for key in stale:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
            dropped = len(stale)
            retained = len(self._entries)
            total = self._bytes
        if _obs.enabled:
            if dropped:
                _obs.inc("repro_plan_cache_invalidations_total", dropped)
            _obs.set_gauge("repro_plan_cache_bytes", float(total))
            _obs.set_gauge("repro_plan_cache_entries", float(retained))
        return dropped, retained

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                oversize_skips=self._oversize_skips,
                entries=len(self._entries),
                bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
            )


#: THE process-wide cache. Modules use :func:`plan_cache` so tests can
#: swap/resize it via :func:`configure`.
_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    return _PLAN_CACHE


def configure(capacity_bytes: int) -> PlanCache:
    """Replace the process-wide cache with a fresh one of the given
    capacity (returns it). Existing artifacts are dropped."""
    global _PLAN_CACHE
    _PLAN_CACHE = PlanCache(capacity_bytes)
    return _PLAN_CACHE
