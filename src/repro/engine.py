"""High-level engine: one object that owns a dataset and answers queries.

:class:`ReverseSkylineEngine` is the adoption-grade facade over the
library: it keeps prepared (laid-out) algorithm instances cached, answers
reverse-skyline, reverse-k-skyband, attribute-subset and influence
queries, and accumulates a query log for observability.

    engine = ReverseSkylineEngine(dataset)              # or .open(path)
    engine.query((1, 2, 0))                             # RS via TRS
    engine.skyband((1, 2, 0), k=3)                      # graded influence
    engine.query_subset(["price", "distance"], (2, 0))  # Section 5.6
    engine.influence({"offer-A": (1, 2, 0), ...})       # Section 1
    engine.query_many(batch, workers=4)                 # pooled + cached

Attribute-subset queries follow the paper's Section 5.6 discipline: the
physical order is fixed once from the *full* attribute set (re-sorting
per query is infeasible); per-subset algorithm instances reuse that order
via projected layouts.

Thread-safety contract (relied on by :mod:`repro.exec`): the instance
caches (``_algorithms``, ``_skybands``, ``_subset_engines``) are created
under ``_lock`` and never mutated afterwards; prepared algorithms are
read-only during ``run`` (each run stages its own simulated disk); the
query log and aggregate counters are guarded by their own lock. Any
number of threads may call the query methods concurrently.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.base import RSResult, Stopwatch
from repro.core.registry import make_algorithm
from repro.core.skyband import ReverseSkybandTRS
from repro.data.dataset import Dataset
from repro.errors import AlgorithmError
from repro.influence.analysis import InfluenceReport, influence_analysis
from repro.kernels import normalize_backend
from repro.obs import hooks as _obs
from repro.sorting.keys import multiattribute_key, schema_order
from repro.storage.disk import DEFAULT_PAGE_BYTES

__all__ = ["QueryLogEntry", "ReverseSkylineEngine"]


@dataclass(frozen=True)
class QueryLogEntry:
    """One answered query, for observability.

    ``wall_time_s`` is the full engine-path time for the query (measured
    with :class:`~repro.core.base.Stopwatch`, i.e. ``time.perf_counter``
    — the same clock the algorithms use — so sequential and concurrent
    entries are directly comparable). ``cached`` entries report zero
    checks and IO: a cache hit does no work.
    """

    kind: str
    algorithm: str
    query: tuple
    result_size: int
    checks: int
    seq_io: int
    rand_io: int
    wall_time_s: float
    cached: bool = False
    #: Set (to the error description) when the query failed past recovery.
    error: str | None = None


@dataclass
class _EngineStats:
    queries: int = 0
    total_checks: int = 0
    total_io: int = 0
    cache_hits: int = 0
    log: list[QueryLogEntry] = field(default_factory=list)
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


class ReverseSkylineEngine:
    """Prepared, cached query engine over one dataset."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        algorithm: str = "TRS",
        backend: str | None = None,
        memory_fraction: float = 0.10,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        log_queries: bool = True,
        fault_injector=None,
        retry_policy=None,
    ) -> None:
        self.dataset = dataset
        self.default_algorithm = algorithm
        #: Compute-backend preference (``python``/``numpy``/``auto``;
        #: ``None`` keeps each algorithm's own class). Applied whenever an
        #: algorithm instance is built, including subset engines.
        self.backend = normalize_backend(backend)
        self.memory_fraction = memory_fraction
        self.page_bytes = page_bytes
        self.log_queries = log_queries
        #: Optional :class:`~repro.faults.FaultInjector` staged onto every
        #: prepared algorithm's per-query disks, plus the retry policy
        #: used there and by the batch executor (see :mod:`repro.faults`).
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self._algorithms: dict[str, object] = {}
        self._subset_engines: dict[tuple[int, ...], "ReverseSkylineEngine"] = {}
        self._skybands: dict[int, ReverseSkybandTRS] = {}
        self._stats = _EngineStats()
        #: Guards creation of the instance caches above (and the result
        #: cache / fingerprint); held only during construction of the
        #: cached objects, never while answering a query.
        self._lock = threading.RLock()
        self._fingerprint: str | None = None
        self._result_cache = None  # lazily built repro.exec.cache.ResultCache
        # The full-attribute physical order, shared by subset queries.
        key = multiattribute_key(schema_order(dataset.schema))
        self._full_order_entries = sorted(
            enumerate(dataset.records), key=lambda e: key(e[1])
        )

    # -- construction ----------------------------------------------------------
    @classmethod
    def open(cls, directory, **kwargs) -> "ReverseSkylineEngine":
        """Open a dataset persisted with :meth:`save` (or
        :func:`repro.persist.save_dataset`). Stored physical layouts are
        restored, so the one-time pre-sort/tiling is not redone."""
        from repro.persist.format import load_dataset
        from repro.persist.layouts import layout_entries, load_layouts

        dataset = load_dataset(directory)
        engine = cls(dataset, **kwargs)
        for name, ids in load_layouts(directory).items():
            try:
                algo = engine._make_algorithm(name)
            except Exception:
                continue  # layout for an algorithm this build doesn't know
            algo.use_layout(layout_entries(dataset, ids))
            engine._algorithms[name] = algo
        return engine

    def save(self, directory) -> None:
        """Persist the dataset plus every prepared algorithm's layout."""
        from repro.persist.format import save_dataset
        from repro.persist.layouts import save_layouts

        save_dataset(self.dataset, directory)
        layouts = {
            name: [rid for rid, _ in algo.layout]
            for name, algo in self._algorithms.items()
        }
        if layouts:
            save_layouts(directory, layouts)

    def _make_algorithm(self, name: str):
        """A fresh, armed, not yet prepared instance of ``name``."""
        algo = make_algorithm(
            name,
            self.dataset,
            backend=self.backend,
            memory_fraction=self.memory_fraction,
            page_bytes=self.page_bytes,
        )
        self._arm(algo)
        return algo

    def _arm(self, algo) -> None:
        """Stage the engine's fault machinery onto one algorithm instance
        (its per-query disks then inject/retry accordingly)."""
        algo.fault_injector = self.fault_injector
        algo.retry_policy = self.retry_policy

    # -- internals ----------------------------------------------------------
    def _algorithm(self, name: str):
        algo = self._algorithms.get(name)
        if algo is None:
            with self._lock:
                algo = self._algorithms.get(name)
                if algo is None:
                    algo = self._make_algorithm(name)
                    algo.prepare()
                    self._algorithms[name] = algo
        return algo

    def _skyband_algorithm(self, k: int) -> ReverseSkybandTRS:
        algo = self._skybands.get(k)
        if algo is None:
            with self._lock:
                algo = self._skybands.get(k)
                if algo is None:
                    algo = ReverseSkybandTRS(
                        self.dataset,
                        k=k,
                        memory_fraction=self.memory_fraction,
                        page_bytes=self.page_bytes,
                    )
                    self._arm(algo)
                    algo.prepare()
                    self._skybands[k] = algo
        return algo

    def _resolve_indices(self, attributes: Sequence[str | int]) -> tuple[int, ...]:
        indices = tuple(
            a if isinstance(a, int) else self.dataset.schema.index_of(a)
            for a in attributes
        )
        if not indices:
            raise AlgorithmError("attribute subset must be non-empty")
        return indices

    def _subset_engine(self, indices: tuple[int, ...]) -> "ReverseSkylineEngine":
        engine = self._subset_engines.get(indices)
        if engine is None:
            with self._lock:
                engine = self._subset_engines.get(indices)
                if engine is None:
                    projected = self.dataset.project(list(indices))
                    algo = make_algorithm(
                        "TRS",
                        projected,
                        backend=self.backend,
                        memory_fraction=self.memory_fraction,
                        page_bytes=self.page_bytes,
                    )
                    self._arm(algo)
                    algo.use_layout(
                        [
                            (rid, tuple(values[i] for i in indices))
                            for rid, values in self._full_order_entries
                        ]
                    )
                    engine = ReverseSkylineEngine(
                        projected,
                        backend=self.backend,
                        memory_fraction=self.memory_fraction,
                        page_bytes=self.page_bytes,
                        log_queries=False,
                        fault_injector=self.fault_injector,
                        retry_policy=self.retry_policy,
                    )
                    engine._algorithms["TRS"] = algo
                    self._subset_engines[indices] = engine
        return engine

    def _record(
        self,
        kind: str,
        result: RSResult,
        *,
        wall_time_s: float | None = None,
        cached: bool = False,
    ) -> RSResult:
        s = result.stats
        checks = 0 if cached else s.checks
        seq_io = 0 if cached else s.io.sequential
        rand_io = 0 if cached else s.io.random
        with self._stats.lock:
            self._stats.queries += 1
            self._stats.total_checks += checks
            self._stats.total_io += seq_io + rand_io
            if cached:
                self._stats.cache_hits += 1
            if self.log_queries:
                self._stats.log.append(
                    QueryLogEntry(
                        kind=kind,
                        algorithm=result.algorithm,
                        query=result.query,
                        result_size=len(result.record_ids),
                        checks=checks,
                        seq_io=seq_io,
                        rand_io=rand_io,
                        wall_time_s=(
                            wall_time_s if wall_time_s is not None else s.wall_time_s
                        ),
                        cached=cached,
                    )
                )
        if _obs.enabled:
            _obs.inc("repro_engine_queries_total", 1, kind=kind)
            if cached:
                _obs.inc("repro_engine_cache_hits_total")
        return result

    # -- queries -------------------------------------------------------------
    def query(
        self,
        query: tuple,
        *,
        algorithm: str | None = None,
        where=None,
    ) -> RSResult:
        """The reverse skyline of ``query``.

        ``where`` optionally restricts the *candidate* set: only records
        satisfying ``where(values)`` may appear in the result. Pruners are
        still drawn from the whole database, so this is exactly
        ``RS(Q) ∩ {x : where(x)}`` (the constrained reverse skyline) and is
        answered by filtering the unconstrained result.
        """
        with Stopwatch() as watch:
            algo = self._algorithm(algorithm or self.default_algorithm)
            result = algo.run(query)
            if where is not None:
                kept = tuple(
                    rid for rid in result.record_ids if where(self.dataset[rid])
                )
                result = RSResult(
                    result.algorithm,
                    result.query,
                    kept,
                    result.stats,
                    backend=result.backend,
                )
        return self._record("reverse-skyline", result, wall_time_s=watch.stop())

    def skyband(self, query: tuple, k: int) -> RSResult:
        """The reverse k-skyband of ``query`` (``k=1`` is the skyline)."""
        with Stopwatch() as watch:
            result = self._skyband_algorithm(k).run(query)
        return self._record(
            f"reverse-{k}-skyband", result, wall_time_s=watch.stop()
        )

    def query_subset(
        self, attributes: Sequence[str | int], query_values: tuple
    ) -> RSResult:
        """Reverse skyline over an attribute subset (Section 5.6).

        ``attributes`` are names or indices of the chosen attributes;
        ``query_values`` gives the query's values for exactly those
        attributes, in the same order. The data's physical order remains
        the full-attribute sort.
        """
        with Stopwatch() as watch:
            indices = self._resolve_indices(attributes)
            engine = self._subset_engine(indices)
            result = engine.query(tuple(query_values), algorithm="TRS")
        return self._record(
            "subset-reverse-skyline", result, wall_time_s=watch.stop()
        )

    def influence(
        self, probes: Mapping[str, tuple] | Sequence[tuple]
    ) -> InfluenceReport:
        """Influence analysis over probe objects (Section 1)."""
        algo = self._algorithm(self.default_algorithm)
        report = influence_analysis(self.dataset, probes, algorithm=algo)
        for result in report.results.values():
            self._record("influence-probe", result)
        return report

    # -- batch / concurrent queries ----------------------------------------
    def query_many(
        self,
        queries: Sequence,
        *,
        kind: str = "query",
        k: int = 1,
        algorithm: str | None = None,
        attributes: Sequence[str | int] | None = None,
        pool: str = "thread",
        workers: int | None = None,
        cache: bool = True,
        plan: bool = False,
        shm: bool = False,
    ):
        """Answer a batch of queries through a pooled, cached executor.

        ``queries`` may be plain query tuples (all interpreted with the
        keyword defaults) or :class:`repro.exec.QuerySpec` objects mixing
        kinds, k values and algorithms freely. Returns a
        :class:`repro.exec.BatchReport` whose ``results`` are in input
        order and bit-identical to a sequential run; merged stats and the
        query log stay deterministic under any pool size.

        ``cache=True`` uses the engine-owned :class:`repro.exec.ResultCache`
        which persists across ``query_many`` calls; call
        :meth:`invalidate_caches` after mutating the dataset.

        ``plan=True`` enables the batch planner (compatible queries are
        answered through shared multi-query scans); ``shm=True``
        additionally publishes the dataset and built plans to process
        workers over shared memory. See :class:`repro.exec.QueryExecutor`.
        """
        from repro.exec.executor import QueryExecutor

        executor = QueryExecutor(
            self,
            pool=pool,
            workers=workers,
            cache=self.result_cache() if cache else None,
            plan=plan,
            shm=shm,
        )
        return executor.run_batch(
            queries, kind=kind, k=k, algorithm=algorithm, attributes=attributes
        )

    def warm(self, *, algorithm: str | None = None, plans: bool = False) -> None:
        """Pay the one-time preparation cost up front (layout sort, tree
        build, optionally the numpy phase-1/scan plans) so the first real
        query does not. The resident service (:mod:`repro.serve`) calls
        this at startup; it is also what makes ``fork``-style pool
        workers inherit warm plans for free."""
        self._algorithm(algorithm or self.default_algorithm)
        if plans:
            from repro.exec.dispatch import _warm_plan_cache

            _warm_plan_cache(self)

    def result_cache(self):
        """The engine-owned result cache (created on first use)."""
        if self._result_cache is None:
            with self._lock:
                if self._result_cache is None:
                    from repro.exec.cache import ResultCache

                    self._result_cache = ResultCache()
        return self._result_cache

    def layout_fingerprint(self) -> str:
        """Content hash of the dataset and its full-attribute physical
        order. Cache keys embed it, so results memoised for one dataset
        state can never answer for another; recomputed by
        :meth:`invalidate_caches`."""
        if self._fingerprint is None:
            with self._lock:
                if self._fingerprint is None:
                    h = hashlib.sha1()
                    h.update(
                        f"{self.dataset.name}|{len(self.dataset)}|"
                        f"{self.dataset.num_attributes}|".encode()
                    )
                    for rid, values in self._full_order_entries:
                        h.update(repr((rid, values)).encode())
                    self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def invalidate_caches(self) -> None:
        """Drop every derived structure after a dataset change: prepared
        algorithm instances, subset engines, skyband instances, the result
        cache and the layout fingerprint. The next query rebuilds them
        from the current records."""
        with self._lock:
            self._algorithms.clear()
            self._skybands.clear()
            self._subset_engines.clear()
            self._fingerprint = None
            # Planner-side derived state (see repro.exec.dispatch): the
            # shared-scan instances and the warmed plan holder both bake
            # in the old layout.
            self.__dict__.pop("_shared_scans", None)
            self.__dict__.pop("_plan_warm", None)
            if self._result_cache is not None:
                self._result_cache.invalidate()
            key = multiattribute_key(schema_order(self.dataset.schema))
            self._full_order_entries = sorted(
                enumerate(self.dataset.records), key=lambda e: key(e[1])
            )

    # -- executor support ----------------------------------------------------
    def _execute_spec(self, spec) -> RSResult:
        """Answer one spec without recording (the executor records the
        whole batch afterwards, in input order)."""
        if spec.kind == "query":
            algo = self._algorithm(spec.algorithm or self.default_algorithm)
            return algo.run(spec.query)
        if spec.kind == "skyband":
            return self._skyband_algorithm(spec.k).run(spec.query)
        if spec.kind == "subset":
            indices = self._resolve_indices(spec.attributes)
            sub = self._subset_engine(indices)
            algo = sub._algorithm("TRS")
            return algo.run(spec.query)
        raise AlgorithmError(f"unknown query kind {spec.kind!r}")

    def _timed_execute(self, spec) -> tuple[RSResult, float]:
        """``_execute_spec`` plus the engine-path wall time, measured with
        the same Stopwatch the sequential query methods use."""
        with Stopwatch() as watch:
            result = self._execute_spec(spec)
        return result, watch.stop()

    def _record_batch(self, specs, results, cached, wall_times, errors=None) -> None:
        """Append one log entry per batch slot, in input order. Failed
        slots (``results[i] is None``) log an error entry with zero cost."""
        if errors is None:
            errors = [None] * len(specs)
        labels = {
            "query": "reverse-skyline",
            "subset": "subset-reverse-skyline",
        }
        for spec, result, hit, wall, error in zip(
            specs, results, cached, wall_times, errors
        ):
            kind = labels.get(spec.kind) or f"reverse-{spec.k}-skyband"
            if result is None:
                self._record_failure(kind, spec, error)
                continue
            self._record(kind, result, wall_time_s=wall, cached=hit)

    def _record_failure(self, kind: str, spec, error) -> None:
        """Log one query that failed past recovery (costs nothing: the
        work its attempts did is accounted in retry counters, not here)."""
        with self._stats.lock:
            self._stats.queries += 1
            if self.log_queries:
                self._stats.log.append(
                    QueryLogEntry(
                        kind=kind,
                        algorithm=spec.algorithm or self.default_algorithm,
                        query=tuple(spec.query),
                        result_size=0,
                        checks=0,
                        seq_io=0,
                        rand_io=0,
                        wall_time_s=0.0,
                        cached=False,
                        error=error.describe() if error is not None else "failed",
                    )
                )
        if _obs.enabled:
            _obs.inc("repro_engine_failures_total", 1, kind=kind)

    # -- observability -----------------------------------------------------
    @property
    def log(self) -> list[QueryLogEntry]:
        with self._stats.lock:
            return list(self._stats.log)

    def summary(self) -> dict:
        """Aggregate engine statistics."""
        with self._stats.lock:
            queries = self._stats.queries
            total_checks = self._stats.total_checks
            total_io = self._stats.total_io
            cache_hits = self._stats.cache_hits
        with self._lock:
            prepared = sorted(self._algorithms)
            subsets = [list(s) for s in sorted(self._subset_engines)]
        latency = self.latency_summary()
        return {
            "dataset": self.dataset.describe(),
            "queries": queries,
            "total_checks": total_checks,
            "total_page_ios": total_io,
            "cache_hits": cache_hits,
            "prepared_algorithms": prepared,
            "prepared_subsets": subsets,
            "latency_p50_ms": latency["p50_ms"],
            "latency_p95_ms": latency["p95_ms"],
            "latency_p99_ms": latency["p99_ms"],
        }

    def latency_summary(self) -> dict[str, float]:
        """Wall-time percentiles (milliseconds) over the query log.

        An empty log yields all-zero percentiles (``count`` 0.0) rather
        than raising — dashboards poll this before traffic arrives.
        """
        with self._stats.lock:
            entries = list(self._stats.log)
        if not entries:
            return {
                "count": 0.0,
                "p50_ms": 0.0,
                "p90_ms": 0.0,
                "p95_ms": 0.0,
                "p99_ms": 0.0,
                "max_ms": 0.0,
                "mean_ms": 0.0,
            }
        times = sorted(e.wall_time_s * 1000 for e in entries)

        def pct(p: float) -> float:
            idx = min(len(times) - 1, max(0, round(p / 100 * (len(times) - 1))))
            return times[idx]

        return {
            "count": float(len(times)),
            "p50_ms": pct(50),
            "p90_ms": pct(90),
            "p95_ms": pct(95),
            "p99_ms": pct(99),
            "max_ms": times[-1],
            "mean_ms": sum(times) / len(times),
        }
