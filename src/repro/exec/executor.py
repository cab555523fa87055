"""Concurrent batch-query execution.

The paper's scan-based algorithms are embarrassingly parallel across
*queries*: each ``run`` stages its own simulated disk, builds its own
trees and touches only read-only prepared state (the layout and the
dissimilarity lookup tables). :class:`QueryExecutor` exploits that by
fanning a batch of reverse-skyline / skyband / attribute-subset queries
over a thread or process pool, with an optional :class:`ResultCache`
memoising repeated queries and deduplicating identical queries *within*
a batch (the first occurrence in input order is computed; the rest reuse
its result).

Determinism contract: answers depend only on the spec, never on the
pool, the worker count, the cache state, or the batch order —
``tests/test_exec.py`` and ``repro.testing.verify.verify_executor``
enforce this differentially against the sequential engine.

Pools
-----
``serial``
    An inline loop — the baseline the differential tests compare against.
``thread``
    ``ThreadPoolExecutor``; shares the engine's prepared algorithm
    instances (safe: ``run`` only reads them). Best when the cache absorbs
    most of the batch or ``backing_dir`` makes queries IO-bound.
``process``
    ``ProcessPoolExecutor``; each worker builds its own engine over the
    (pickled or forked) dataset, sidestepping the GIL for CPU-bound
    batches. Worker engines are constructed once per pool, so the layout
    sort is paid per worker, not per query.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.base import Stopwatch
from repro.errors import AlgorithmError, ReproError
from repro.exec.cache import CacheKey, ResultCache
from repro.exec.dispatch import _GROUP_FAMILY, Dispatcher, shared_scan_answer
from repro.exec.merge import BatchReport, QueryError, merge_batch
from repro.faults.retry import RetryPolicy
from repro.obs import hooks as _obs

__all__ = [
    "QuerySpec",
    "QueryExecutor",
    "as_spec",
    "planner_group_key",
]

_KINDS = ("query", "skyband", "subset")


@dataclass(frozen=True)
class QuerySpec:
    """One query in a batch: what to ask, not how to run it."""

    query: tuple
    kind: str = "query"
    k: int = 1
    algorithm: str | None = None
    #: Attribute names or indices for ``kind="subset"`` (Section 5.6).
    attributes: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise AlgorithmError(
                f"unknown query kind {self.kind!r}; known: {', '.join(_KINDS)}"
            )
        if self.kind == "skyband" and self.k < 1:
            raise AlgorithmError(f"skyband needs k >= 1, got {self.k}")
        if self.kind == "subset" and not self.attributes:
            raise AlgorithmError("subset queries need a non-empty attribute tuple")


def as_spec(
    item,
    *,
    kind: str = "query",
    k: int = 1,
    algorithm: str | None = None,
    attributes: Sequence | None = None,
) -> QuerySpec:
    """Coerce a plain query tuple (or a ready spec) into a QuerySpec."""
    if isinstance(item, QuerySpec):
        return item
    return QuerySpec(
        query=tuple(item),
        kind=kind,
        k=k if kind == "skyband" else 1,
        algorithm=algorithm,
        attributes=tuple(attributes) if attributes is not None else None,
    )


def planner_group_key(engine, spec: QuerySpec):
    """The planner compatibility key for ``spec`` on ``engine``, or
    ``None`` when it must run as an individual job.

    Groupable means: a plain reverse-skyline query (no skyband k, no
    attribute subset) whose algorithm resolves into the shared-scan
    family. The key is ``(layout fingerprint, family, backend)`` —
    exactly the inputs :class:`SharedScanTRS` answers under, so every
    member of a group is guaranteed the same answer it would get from
    its own engine run. Shared by :class:`QueryExecutor` and the
    resident service's micro-batcher (:mod:`repro.serve.batcher`).
    """
    if spec.kind != "query" or spec.attributes is not None:
        return None
    if getattr(engine, "maint_active", False):
        # Maintained engines answer in stable ids over base + deltas;
        # shared scans know neither the overlay nor the id translation.
        return None
    from repro.kernels import scalar_variant

    name = spec.algorithm or engine.default_algorithm
    if scalar_variant(name) != _GROUP_FAMILY:
        return None
    if name != scalar_variant(name):
        # An explicit vector-variant request pins the numpy backend.
        backend = "numpy"
    else:
        backend = getattr(engine, "backend", None) or "auto"
    return (engine.layout_fingerprint(), _GROUP_FAMILY, backend)


class QueryExecutor:
    """Fan batches of queries over a pool, memoising through a cache.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.ReverseSkylineEngine` that owns the
        dataset and the prepared algorithm instances.
    pool:
        ``"serial"``, ``"thread"`` or ``"process"``.
    workers:
        Pool size; defaults to ``min(4, cpu_count)``.
    cache:
        ``True`` for a private :class:`ResultCache`, an existing cache to
        share (e.g. the engine's), or ``None``/``False`` for no caching.
    fault_injector / retry_policy:
        Fault machinery for worker-level faults and query retries;
        default to the engine's own (set when the engine was constructed
        with a :class:`~repro.faults.FaultInjector`).
    plan:
        Enable the batch planner: compatible specs (same layout
        fingerprint, same scalar algorithm family, same backend) are
        grouped and answered through one shared
        :class:`~repro.core.multiquery.SharedScanTRS` scan per group
        chunk, instead of one engine run per query. Answers stay
        bit-identical; per-query stats carry the attributable check
        counts while shared IO lands on each group's first member.
    shm:
        Process pool only: publish the dataset and the already-built
        numpy plans to workers over ``multiprocessing.shared_memory``
        (see :mod:`repro.exec.shm`) instead of pickling the dataset
        into every worker. Falls back to the pickle path (and counts
        the fallback) for datasets the flat-array codec cannot carry.
    """

    def __init__(
        self,
        engine,
        *,
        pool: str = "thread",
        workers: int | None = None,
        cache: ResultCache | bool | None = None,
        fault_injector=None,
        retry_policy: RetryPolicy | None = None,
        plan: bool = False,
        shm: bool = False,
    ) -> None:
        if pool not in ("serial", "thread", "process"):
            raise AlgorithmError(
                f"unknown pool kind {pool!r}; known: serial, thread, process"
            )
        self.engine = engine
        self.pool = pool
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise AlgorithmError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if cache is True:
            cache = ResultCache()
        self.cache = None if cache is False else cache
        #: ``None`` defers to the engine's own (see :class:`Dispatcher`).
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.plan = bool(plan)
        self.shm = bool(shm)

    # -- public API ---------------------------------------------------------
    def run_batch(
        self,
        queries: Sequence,
        *,
        kind: str = "query",
        k: int = 1,
        algorithm: str | None = None,
        attributes: Sequence | None = None,
    ) -> BatchReport:
        """Answer every query; results come back in input order.

        ``queries`` may mix plain tuples (interpreted with the keyword
        defaults) and explicit :class:`QuerySpec` objects. A query that
        fails past recovery becomes a structured error entry in the
        report (``results[i] is None``, ``errors[i]`` set) — it never
        aborts the rest of the batch.
        """
        specs = [
            as_spec(q, kind=kind, k=k, algorithm=algorithm, attributes=attributes)
            for q in queries
        ]
        if not specs:
            raise AlgorithmError("need at least one query")
        engine = self.engine
        batch_watch = Stopwatch()

        n = len(specs)
        results: list = [None] * n
        cached = [False] * n
        deduped = [False] * n
        wall_times = [0.0] * n
        errors: list[QueryError | None] = [None] * n

        batch_span = _obs.span(
            "exec.batch", pool=self.pool, workers=self.workers, queries=n
        )
        batch_span.__enter__()
        try:

            # Partition the batch into cache hits and unique pending jobs.
            # Identical specs collapse onto one job whenever a cache is
            # attached (in-flight dedup); the first occurrence is the computed
            # one, later occurrences count as hits.
            jobs: list[tuple[QuerySpec, list[int]]] = []
            keys: list[CacheKey | None] = [None] * n
            cache_version: int | None = None
            if self.cache is not None:
                # Snapshot the cache version before the fingerprint: an
                # invalidate() racing this batch must drop our later put()s,
                # not let them re-insert results keyed by the old fingerprint.
                cache_version = self.cache.version
                fingerprint = engine.layout_fingerprint()
                job_of: dict[CacheKey, int] = {}
                for i, spec in enumerate(specs):
                    try:
                        key = CacheKey.of(engine, spec, fingerprint)
                    except ReproError:
                        # An unresolvable spec (e.g. unknown attribute) is
                        # uncacheable; run it as its own job so the failure
                        # is captured per-query, not thrown at the batch.
                        jobs.append((spec, [i]))
                        continue
                    keys[i] = key
                    hit = self.cache.get(key)
                    if hit is not None:
                        results[i] = hit
                        cached[i] = True
                        continue
                    j = job_of.get(key)
                    if j is None:
                        job_of[key] = len(jobs)
                        jobs.append((spec, [i]))
                    else:
                        jobs[j][1].append(i)
                        cached[i] = True
                        deduped[i] = True
            else:
                jobs = [(spec, [i]) for i, spec in enumerate(specs)]

            planned_flags = [False] * n
            outcomes = self._run_jobs([spec for spec, _ in jobs])
            for (spec, indices), outcome in zip(jobs, outcomes):
                if shared_scan_answer(outcome):
                    for i in indices:
                        planned_flags[i] = True
                if _obs.enabled and outcome.trace:
                    # Job order, not completion order: grafted span ids
                    # come out identical for serial, thread and process
                    # pools. getattr: if obs was flipped on mid-batch the
                    # batch span is the null span; graft as roots.
                    _obs.adopt_job_trace(
                        outcome.trace,
                        parent_id=getattr(batch_span, "span_id", None),
                    )
                first = indices[0]
                if outcome.error is not None:
                    # The whole dedup group shares the failure; none of its
                    # slots counts as a cache hit and nothing is cached.
                    for i in indices:
                        results[i] = None
                        errors[i] = outcome.error
                        cached[i] = False
                        deduped[i] = False
                    continue
                results[first] = outcome.result
                wall_times[first] = outcome.wall_s
                for i in indices[1:]:
                    results[i] = outcome.result
                if self.cache is not None and keys[first] is not None:
                    self.cache.put(keys[first], outcome.result, version=cache_version)

            # One pass in input order keeps the engine's query log and
            # aggregate counters deterministic under any pool.
            engine._record_batch(specs, results, cached, wall_times, errors)
            report = merge_batch(
                specs,
                results,
                cached,
                wall_times,
                batch_wall_time_s=batch_watch.stop(),
                pool=self.pool,
                workers=self.workers,
                errors=errors,
                deduped=deduped,
                planned=planned_flags,
            )
            if _obs.enabled:
                batch_span.annotate("memo_hits", report.memo_hits)
                batch_span.annotate("dedup_hits", report.dedup_hits)
                batch_span.annotate("failed", report.failed)
                _obs.inc("repro_batches_total", 1, pool=self.pool)
                _obs.inc("repro_batch_queries_total", n)
                _obs.inc("repro_batch_memo_hits_total", report.memo_hits)
                _obs.inc("repro_batch_dedup_hits_total", report.dedup_hits)
                _obs.inc("repro_batch_failures_total", report.failed)
                _obs.observe("repro_batch_wall_seconds", report.wall_time_s)
            return report
        finally:
            batch_span.__exit__(None, None, None)

    # -- internals ----------------------------------------------------------
    def _run_jobs(self, job_specs: list[QuerySpec]) -> list:
        """Run the pending jobs; one outcome per job, in job order.

        Without the planner every job is a ``single`` payload. With it,
        compatible specs are grouped and answered through shared scans.
        Grouping is deterministic: groups keep their members in job
        order, each group is split into at most ``workers`` contiguous
        chunks (one chunk when serial — there is nothing to overlap),
        never more than ``members // 2`` so every chunk keeps at least
        two queries per shared scan (a one-query "shared" scan would
        only add overhead), and payloads are dispatched ordered by their
        first member's job index.
        """
        if not job_specs:
            return []
        if self.plan:
            payloads = self._plan(job_specs)
        else:
            payloads = [(("single", s), [j]) for j, s in enumerate(job_specs)]
        wires = [wire for wire, _ in payloads]
        one_by_one = self.workers == 1 or len(wires) == 1
        with Dispatcher(
            self.engine,
            pool="serial" if one_by_one else self.pool,
            workers=self.workers,
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
            shm=self.shm,
            # Planned batches warm the plan cache first: forked workers
            # inherit the plans, and the shm publisher ships them.
            warm=self.plan,
        ) as spine:
            outs = spine.run(wires)
        outcomes: list = [None] * len(job_specs)
        for (wire, idxs), out in zip(payloads, outs):
            for j, oc in zip(idxs, out if wire[0] == "group" else [out]):
                outcomes[j] = oc
        return outcomes

    def _plan(self, job_specs: list[QuerySpec]) -> list:
        """The planner's ``(wire, job indices)`` payloads (see
        :meth:`_run_jobs`)."""
        groups: dict[tuple, list[int]] = {}
        singles: list[int] = []
        for j, spec in enumerate(job_specs):
            key = planner_group_key(self.engine, spec)
            if key is None:
                singles.append(j)
            else:
                groups.setdefault(key, []).append(j)

        payloads: list[tuple[tuple, list[int]]] = []
        for key, members in groups.items():
            if len(members) < 2:
                singles.extend(members)
                continue
            if self.pool == "serial":
                chunks = 1
            else:
                # Cap at members // 2 so no chunk degenerates to a
                # single: with fewer members than 2*workers, a shared
                # scan per pair still beats per-query rebuilds.
                chunks = max(1, min(self.workers, len(members) // 2))
            # chunks <= members // 2, so every chunk has two or more.
            base, rem = divmod(len(members), chunks)
            start = 0
            for c in range(chunks):
                size = base + (1 if c < rem else 0)
                part = members[start : start + size]
                start += size
                wire = ("group", tuple(job_specs[j] for j in part), key[2])
                payloads.append((wire, part))
                if _obs.enabled:
                    _obs.inc("repro_plan_groups_total")
                    _obs.observe("repro_plan_group_size", len(part))
        if _obs.enabled and singles:
            _obs.inc("repro_plan_singles_total", len(singles))
        for j in singles:
            payloads.append((("single", job_specs[j]), [j]))
        payloads.sort(key=lambda p: p[1][0])
        return payloads
