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
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.core.base import CostStats, RSResult, Stopwatch
from repro.errors import AlgorithmError, ReproError, TransientError
from repro.exec.cache import CacheKey, ResultCache
from repro.exec.merge import BatchReport, QueryError, merge_batch
from repro.faults.retry import RetryPolicy
from repro.obs import hooks as _obs

__all__ = [
    "QuerySpec",
    "QueryExecutor",
    "as_spec",
    "planner_group_key",
    "shared_scan_answer",
]

#: The only shared-scan family today. Group membership keys on the
#: *scalar* family name (backends never change answers), so TRS and
#: VectorTRS requests group together.
_GROUP_FAMILY = "TRS"

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


@dataclass(frozen=True)
class _JobOutcome:
    """What one pending job produced — success or structured failure.

    Plain picklable dataclass: it is also the wire format coming back
    from process-pool workers, so per-worker cost stats (inside
    ``result.stats``, including the IO retry counters) and failures are
    never silently dropped when a pool is torn down.
    """

    result: object | None  # RSResult on success
    wall_s: float
    error: QueryError | None = None
    attempts: int = 1
    #: The job's span records (``repro.obs``), ids local to the job; the
    #: executor grafts them under the batch span in job order so the
    #: merged trace tree is identical whatever pool answered the batch.
    trace: tuple = ()
    #: Worker-local :class:`~repro.obs.metrics.MetricsSnapshot` (process
    #: pool only; serial/thread jobs write the shared registry directly).
    metrics: object | None = None
    #: Thread CPU seconds of the engine call (a group's whole shared scan
    #: on its first member, like ``wall_s``). Unlike wall time it does
    #: not count time spent waiting for the GIL or a core, so it is the
    #: cost the resident service's micro-batcher compares paths by.
    cpu_s: float = 0.0


def _run_with_recovery(
    engine, spec: QuerySpec, injector, policy: RetryPolicy
) -> _JobOutcome:
    """Answer one spec, retrying transient failures, capturing the rest.

    The recovery contract the chaos harness asserts: a transient fault
    (worker crash/timeout from the injector, or a raw transient that
    escaped the storage layer) is retried under ``policy``; retry
    exhaustion and every other library error become a structured
    :class:`QueryError` outcome. Nothing an individual query does can
    abort the batch — only genuine bugs (non-``ReproError``) propagate.
    """
    handle = _obs.begin_job("exec.query", kind=spec.kind)
    attempt = 0
    outcome: _JobOutcome | None = None
    try:
        while outcome is None:
            try:
                if injector is not None:
                    injector.query_fault(spec.query)
                cpu0 = time.thread_time()
                result, wall = engine._timed_execute(spec)
                outcome = _JobOutcome(
                    result,
                    wall,
                    None,
                    attempts=attempt + 1,
                    cpu_s=time.thread_time() - cpu0,
                )
            except TransientError as exc:
                attempt += 1
                if _obs.enabled:
                    _obs.inc("repro_query_retries_total")
                try:
                    policy.backoff(attempt, exc)
                except ReproError as final:
                    outcome = _JobOutcome(
                        None,
                        0.0,
                        QueryError.from_exception(final, spec.query, attempts=attempt),
                        attempts=attempt,
                    )
            except ReproError as exc:
                # Includes RetryExhaustedError escalated by the storage layer:
                # its retry budget is spent, so it is terminal here.
                outcome = _JobOutcome(
                    None,
                    0.0,
                    QueryError.from_exception(exc, spec.query, attempts=attempt + 1),
                    attempts=attempt + 1,
                )
    finally:
        if handle is not None:
            root = handle[1]
            if outcome is not None:
                root.annotate("attempts", outcome.attempts)
                if outcome.error is not None:
                    root.annotate("failed", outcome.error.error_type)
            trace = _obs.end_job(handle)
    if handle is not None and outcome is not None:
        outcome = replace(outcome, trace=trace)
    return outcome


# -- process-pool plumbing ----------------------------------------------------
# Workers hold their own engine plus fault machinery (module globals set
# by the pool initializer); specs go over the wire, _JobOutcomes come
# back — all plain picklable dataclasses.
_WORKER_ENGINE = None
_WORKER_INJECTOR = None
_WORKER_POLICY = RetryPolicy()


def _process_worker_init(
    dataset,
    algorithm,
    memory_fraction,
    page_bytes,
    fault_plan=None,
    fault_seed=0,
    retry_args=None,
    obs_enabled=False,
    backend=None,
    manifest=None,
    maint=None,
) -> None:
    global _WORKER_ENGINE, _WORKER_INJECTOR, _WORKER_POLICY
    from repro.engine import ReverseSkylineEngine

    if obs_enabled:
        # Mirror the parent's observability state: each job then resets
        # the worker registry, snapshots after, and ships the snapshot
        # home inside its _JobOutcome (see _process_worker_run).
        _obs.enable(reset_state=True)
    if manifest is not None:
        # Zero-copy path: the dataset slot arrived empty; rebuild it over
        # the parent's shared-memory segment and seed the worker's plan
        # cache from the published plan arrays (attach keeps the segment
        # mapped for the worker's lifetime — record views alias it).
        from repro.exec import shm as _shm

        dataset = _shm.dataset_from_manifest(manifest)
        _shm.seed_plan_cache(manifest)
    _WORKER_INJECTOR = None
    if fault_plan is not None:
        from repro.faults.inject import FaultInjector

        _WORKER_INJECTOR = FaultInjector(fault_plan, fault_seed)
    _WORKER_POLICY = RetryPolicy(**retry_args) if retry_args else RetryPolicy()
    if maint is not None:
        # Maintained parent: the worker mirrors it — same base (shm or
        # pickle), same engine family, plus the parent's delta state
        # (inline blob, or a published delta segment alongside the base
        # manifest). Workers never compact; the parent drives their
        # lifecycle and rebuilds pools at compaction.
        from repro.maint import MaintainedEngine

        _WORKER_ENGINE = MaintainedEngine(
            dataset,
            algorithm=algorithm,
            memory_fraction=memory_fraction,
            page_bytes=page_bytes,
            log_queries=False,
            fault_injector=_WORKER_INJECTOR,
            retry_policy=_WORKER_POLICY,
            backend=backend,
        )
        if maint.get("manifest") is not None:
            from repro.exec import shm as _shm

            blob = _shm.deltas_from_manifest(maint["manifest"])
        else:
            blob = maint["inline"]
        _WORKER_ENGINE.sync_maint_state(blob)
        return
    _WORKER_ENGINE = ReverseSkylineEngine(
        dataset,
        algorithm=algorithm,
        memory_fraction=memory_fraction,
        page_bytes=page_bytes,
        log_queries=False,
        fault_injector=_WORKER_INJECTOR,
        retry_policy=_WORKER_POLICY,
        backend=backend,
    )


def _process_worker_run(spec: QuerySpec) -> _JobOutcome:
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    if _obs.enabled:
        _obs.registry().reset()
    outcome = _run_with_recovery(
        _WORKER_ENGINE, spec, _WORKER_INJECTOR, _WORKER_POLICY
    )
    if _obs.enabled:
        # Per-job delta snapshot; the parent merges them in job order
        # (sums commute, so worker scheduling cannot change the totals).
        outcome = replace(outcome, metrics=_obs.snapshot())
    return outcome


def _process_worker_run_payload(wire):
    """Run one planner payload in a pool worker: a plain spec, or a
    group routed through the shared multi-query scan. A ``("maint",
    blob, inner)`` envelope first syncs the worker's maintained engine
    to the parent's delta epoch (idempotent: stale blobs are ignored),
    then runs the inner payload — this is how the resident service
    streams updates into a *persistent* pool without republishing."""
    if wire[0] == "maint":
        _, blob, wire = wire
        assert _WORKER_ENGINE is not None, "pool initializer did not run"
        sync = getattr(_WORKER_ENGINE, "sync_maint_state", None)
        if sync is not None:
            sync(blob)
    if wire[0] == "single":
        return _process_worker_run(wire[1])
    _, specs, backend = wire
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    if _obs.enabled:
        _obs.registry().reset()
    outcomes = _run_group(
        _WORKER_ENGINE, specs, backend, _WORKER_INJECTOR, _WORKER_POLICY
    )
    if _obs.enabled:
        outcomes[0] = replace(outcomes[0], metrics=_obs.snapshot())
    return outcomes


# -- planner group execution --------------------------------------------------


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


def _prepared_layout(engine, attribute_order):
    """The layout an engine's prepared TRS-family instance already
    sorted for ``attribute_order``, or ``None`` when it has none yet."""
    from repro.core.trs import TRS
    from repro.kernels import scalar_variant

    for algo in list(engine._algorithms.values()):
        if (
            isinstance(algo, TRS)
            and scalar_variant(algo.name) == _GROUP_FAMILY
            and algo.presort
            and algo.attribute_order == attribute_order
            and algo._layout is not None
        ):
            return algo._layout
    return None


def shared_scan_answer(outcome) -> bool:
    """Whether a fresh outcome was computed inside a shared-scan group
    (group members that degraded to per-query recovery were not)."""
    return (
        outcome.error is None
        and outcome.result is not None
        and outcome.result.algorithm == "SharedScanTRS"
    )


def _shared_scan_for(engine, backend):
    """The engine's cached :class:`SharedScanTRS` for ``backend`` (one
    per engine per backend). It adopts the layout the engine's prepared
    TRS instance already sorted, and memoises its plan fingerprint,
    matrices and staged pages, so each of those is paid once whatever
    pool answers the groups."""
    from repro.core.multiquery import SharedScanTRS

    scans = engine.__dict__.get("_shared_scans")
    if scans is None:
        with engine._lock:
            scans = engine.__dict__.setdefault("_shared_scans", {})
    inst = scans.get(backend)
    if inst is None:
        with engine._lock:
            inst = scans.get(backend)
            if inst is None:
                inst = SharedScanTRS(
                    engine.dataset,
                    memory_fraction=engine.memory_fraction,
                    page_bytes=engine.page_bytes,
                    backend=backend,
                    fault_injector=engine.fault_injector,
                    retry_policy=engine.retry_policy,
                )
                layout = _prepared_layout(engine, inst.attribute_order)
                if layout is not None:
                    inst.use_layout(layout)
                inst.prepare()
                scans[backend] = inst
    return inst


def _group_outcomes(specs, mq, wall_s: float, cpu_s: float) -> list:
    """Split one :class:`MultiQueryResult` into per-query outcomes whose
    stats sum exactly to the shared run's stats.

    Per-query attributable cost (the phase-split check counts) lands on
    its owner; shared cost (the scan IO, the batch/pass counters, the
    group wall time, the pruner-test remainder) lands on the group's
    first member — so ``CostStats.merged`` over the members reproduces
    the shared totals and batch-level accounting stays truthful.
    """
    nq = len(specs)
    g = mq.stats
    pqc1 = mq.per_query_checks_phase1 or mq.per_query_checks or (0,) * nq
    pqc2 = mq.per_query_checks_phase2 or (0,) * nq
    tests_each = g.pruner_tests // nq
    outcomes = []
    for i in range(nq):
        stats = CostStats()
        stats.checks_phase1 = pqc1[i]
        stats.checks_phase2 = pqc2[i]
        stats.pruner_tests = tests_each
        stats.result_count = len(mq.results[i])
        if i == 0:
            stats.pruner_tests += g.pruner_tests - tests_each * nq
            stats.db_passes = g.db_passes
            stats.phase1_batches = g.phase1_batches
            stats.phase2_batches = g.phase2_batches
            stats.intermediate_count = g.intermediate_count
            stats.phase1_pruned = g.phase1_pruned
            stats.wall_time_s = g.wall_time_s
            stats.io = g.io
        result = RSResult(
            "SharedScanTRS", mq.queries[i], mq.results[i], stats,
            backend=mq.backend,
        )
        outcomes.append(
            _JobOutcome(
                result,
                wall_s if i == 0 else 0.0,
                None,
                cpu_s=cpu_s if i == 0 else 0.0,
            )
        )
    return outcomes


def _run_group(engine, specs, backend, injector, policy) -> list:
    """Answer a planner group through one shared scan.

    Fault contract mirrors :func:`_run_with_recovery`: every member's
    scheduled worker fault is consulted before the scan, transient
    failures retry the whole group under ``policy``, and anything
    terminal falls back to per-member recovery — so one misbehaving
    member degrades the group to individual runs instead of aborting
    the batch (or poisoning its neighbours' answers).
    """
    handle = _obs.begin_job("exec.group", kind="group")
    outcomes: list | None = None
    try:
        attempt = 0
        mq = None
        wall = cpu = 0.0
        while mq is None:
            try:
                if injector is not None:
                    for spec in specs:
                        injector.query_fault(spec.query)
                shared = _shared_scan_for(engine, backend)
                cpu0 = time.thread_time()
                with Stopwatch() as watch:
                    mq = shared.run_batch([s.query for s in specs])
                wall = watch.elapsed_s
                cpu = time.thread_time() - cpu0
            except TransientError as exc:
                attempt += 1
                if _obs.enabled:
                    _obs.inc("repro_query_retries_total")
                try:
                    policy.backoff(attempt, exc)
                except ReproError:
                    break
            except ReproError:
                break
        grouped = mq is not None
        if grouped:
            outcomes = _group_outcomes(specs, mq, wall, cpu)
        else:
            if _obs.enabled:
                _obs.inc("repro_plan_fallbacks_total")
            outcomes = [
                _run_with_recovery(engine, s, injector, policy) for s in specs
            ]
    finally:
        if handle is not None:
            root = handle[1]
            root.annotate("queries", len(specs))
            trace = _obs.end_job(handle)
    if handle is not None and outcomes and grouped:
        # Fallback members carry their own per-query recovery traces;
        # only a genuinely shared run reports the group trace.
        outcomes[0] = replace(outcomes[0], trace=trace)
    return outcomes


def _warm_plan_cache(engine) -> None:
    """Best-effort: build the family's phase-1/scan plans into the
    process-wide plan cache *before* a pool starts, so forked workers
    inherit them for free (copy-on-write) and the shm publisher has
    concrete arrays to export for spawn-style workers. The warmed
    instance is kept on the engine so repeat batches skip the rebuild
    (``invalidate_caches`` drops it); a dataset the numpy kernels cannot
    serve is simply skipped."""
    from repro.core.vector_trs import VectorTRS
    from repro.storage.disk import DiskSimulator

    if engine.__dict__.get("_plan_warm") is not None:
        return
    try:
        algo = VectorTRS(
            engine.dataset,
            memory_fraction=engine.memory_fraction,
            page_bytes=engine.page_bytes,
        )
        algo.prepare()
        disk = DiskSimulator(algo.page_bytes)
        try:
            data_file = disk.load_entries(
                engine.dataset.schema, algo.layout, "data"
            )
            algo._phase1_batches(data_file)
            algo._scan_arrays(data_file)
        finally:
            disk.close()
        with engine._lock:
            engine.__dict__["_plan_warm"] = algo
    except ReproError:
        pass


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
        cache_capacity: int = 1024,
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
            cache = ResultCache(cache_capacity)
        elif cache is False:
            cache = None
        self.cache = cache
        if fault_injector is None:
            fault_injector = getattr(engine, "fault_injector", None)
        self.fault_injector = fault_injector
        if retry_policy is None:
            retry_policy = getattr(engine, "retry_policy", None) or RetryPolicy()
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
                fingerprint = engine.layout_fingerprint()
                # Snapshot the cache version with the fingerprint: an
                # invalidate() racing this batch must drop our later put()s,
                # not let them re-insert results keyed by the old fingerprint.
                cache_version = self.cache.version
                job_of: dict[CacheKey, int] = {}
                for i, spec in enumerate(specs):
                    try:
                        key = self._cache_key(spec, fingerprint)
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
            job_specs = [spec for spec, _ in jobs]
            if self.plan:
                outcomes, planned_jobs = self._execute_planned(job_specs)
            else:
                outcomes, planned_jobs = self._execute(job_specs), set()
            for j, ((spec, indices), outcome) in enumerate(zip(jobs, outcomes)):
                if j in planned_jobs and outcome.error is None:
                    for i in indices:
                        planned_flags[i] = True
                if _obs.enabled:
                    # Job order, not completion order: grafted span ids
                    # and merged counters come out identical for serial,
                    # thread and process pools.
                    if outcome.trace:
                        # getattr: if obs was flipped on mid-batch the
                        # batch span is the null span; graft as roots.
                        _obs.adopt_job_trace(
                            outcome.trace,
                            parent_id=getattr(batch_span, "span_id", None),
                        )
                    if outcome.metrics is not None:
                        _obs.registry().merge(outcome.metrics)
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
    def _cache_key(self, spec: QuerySpec, fingerprint: str) -> CacheKey:
        return CacheKey(
            kind=spec.kind,
            algorithm=spec.algorithm or self.engine.default_algorithm,
            fingerprint=fingerprint,
            query=tuple(spec.query),
            k=spec.k,
            attributes=(
                self.engine._resolve_indices(spec.attributes)
                if spec.attributes is not None
                else None
            ),
        )

    def _retry_args(self) -> dict:
        """The retry policy as picklable constructor kwargs for process
        workers (a custom ``sleep`` hook stays local — workers use the
        real ``time.sleep``)."""
        p = self.retry_policy
        return {
            "max_attempts": p.max_attempts,
            "base_delay_s": p.base_delay_s,
            "multiplier": p.multiplier,
            "max_delay_s": p.max_delay_s,
            "jitter": p.jitter,
            # A None salt stays None on the wire: each worker then jitters
            # from its *own* pid, which is the whole decorrelation point.
            "jitter_salt": p.jitter_salt,
        }

    def _process_initargs(self, *, warm: bool = False):
        """The process-pool initializer arguments, plus the shm manifests
        to unlink once the pool is gone (an empty tuple on the pickle
        path).

        With ``shm`` enabled the dataset slot ships as ``None`` and a
        :class:`~repro.exec.shm.ShmManifest` rides along instead; the
        worker attaches, rebuilds the dataset over the shared arrays and
        seeds its plan cache from the published plans. ``warm`` builds
        the family plans in *this* process first, so forked workers
        inherit them and the publisher has them to export.

        A maintained engine additionally exports its delta state: over a
        delta segment published alongside the base manifest when shm is
        on (same ``repro-shm-`` prefix, same unlink lifecycle, so the
        leak audits cover it), inline in the initargs otherwise. The base
        the workers build over is the engine's *compacted* base; deltas
        ride the wire so worker answers match the parent's epoch exactly.
        """
        engine = self.engine
        injector = self.fault_injector
        fault_plan = injector.plan if injector is not None else None
        fault_seed = injector.seed if injector is not None else 0
        if warm:
            _warm_plan_cache(engine)
        manifest = None
        if self.shm:
            from repro.exec import shm as _shm

            manifest = _shm.publish_engine(engine)
            if manifest is None and _obs.enabled:
                _obs.inc("repro_shm_fallbacks_total")
        manifests = () if manifest is None else (manifest,)
        maint = None
        export_wire = getattr(engine, "_export_maint_wire", None)
        if export_wire is not None:
            blob = export_wire()
            maint = {"inline": blob, "manifest": None}
            if manifest is not None:
                from repro.exec import shm as _shm

                delta_manifest = _shm.publish_deltas(blob)
                if delta_manifest is not None:
                    maint = {"inline": None, "manifest": delta_manifest}
                    manifests = manifests + (delta_manifest,)
        return manifests, (
            None if manifest is not None else engine.dataset,
            engine.default_algorithm,
            engine.memory_fraction,
            engine.page_bytes,
            fault_plan,
            fault_seed,
            self._retry_args(),
            _obs.enabled,
            getattr(engine, "backend", None),
            manifest,
            maint,
        )

    def _group_key(self, spec: QuerySpec):
        """See :func:`planner_group_key` (shared with the micro-batcher)."""
        return planner_group_key(self.engine, spec)

    def _execute_planned(self, job_specs: list[QuerySpec]):
        """Plan + run the pending jobs: compatible specs are grouped and
        answered through shared scans, the rest run individually.

        Returns ``(outcomes, planned_jobs)`` with outcomes in job order
        and ``planned_jobs`` the set of job indices genuinely answered by
        a shared scan (group members that degraded to per-query recovery
        are *not* in it — the ``planned`` column never lies).

        Grouping is deterministic: groups keep their members in job
        order, each group is split into at most ``workers`` contiguous
        chunks (one chunk when serial — there is nothing to overlap),
        never more than ``members // 2`` so every chunk keeps at least
        two queries per shared scan, and payloads are dispatched ordered
        by their first member's job index. A chunk that still ends up
        with a single member runs as a plain single; a one-query
        "shared" scan would only add overhead.
        """
        if not job_specs:
            return [], set()
        groups: dict[tuple, list[int]] = {}
        singles: list[int] = []
        for j, spec in enumerate(job_specs):
            key = self._group_key(spec)
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
            base, rem = divmod(len(members), chunks)
            start = 0
            for c in range(chunks):
                size = base + (1 if c < rem else 0)
                part = members[start : start + size]
                start += size
                if len(part) < 2:
                    singles.extend(part)
                    continue
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

        outs = self._execute_payloads([wire for wire, _ in payloads])
        outcomes: list = [None] * len(job_specs)
        planned_jobs: set[int] = set()
        for (wire, idxs), out in zip(payloads, outs):
            if wire[0] == "single":
                outcomes[idxs[0]] = out
                continue
            for j, oc in zip(idxs, out):
                outcomes[j] = oc
                if shared_scan_answer(oc):
                    planned_jobs.add(j)
        return outcomes, planned_jobs

    def _execute_payloads(self, wires: list) -> list:
        """Dispatch planner payloads over the configured pool. Returns
        one entry per wire: a :class:`_JobOutcome` for ``single`` wires,
        a list of them (member order) for ``group`` wires."""
        engine = self.engine
        injector, policy = self.fault_injector, self.retry_policy
        if self.pool == "process" and self.workers > 1 and len(wires) > 1:
            # Warm the plan cache first: forked workers inherit the built
            # plans via copy-on-write, and the shm publisher (when on)
            # ships them to spawn-style workers explicitly.
            manifests, initargs = self._process_initargs(warm=True)
            try:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_process_worker_init,
                    initargs=initargs,
                ) as pool:
                    # chunksize=1: payloads are few and coarse; one group
                    # per dispatch keeps workers evenly loaded.
                    return list(
                        pool.map(_process_worker_run_payload, wires, chunksize=1)
                    )
            finally:
                if manifests:
                    from repro.exec import shm as _shm

                    for m in manifests:
                        _shm.unlink_manifest(m)
        for wire in wires:
            if wire[0] == "single":
                try:
                    engine._prepare_for(wire[1])
                except ReproError:
                    pass  # resurfaces inside the job as a structured QueryError

        def run_payload(wire):
            if wire[0] == "single":
                return _run_with_recovery(engine, wire[1], injector, policy)
            _, specs, backend = wire
            return _run_group(engine, specs, backend, injector, policy)

        if self.pool == "thread" and self.workers > 1 and len(wires) > 1:
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            ) as pool:
                return list(pool.map(run_payload, wires))
        return [run_payload(w) for w in wires]

    def _execute(self, job_specs: list[QuerySpec]) -> list[_JobOutcome]:
        """Run the pending jobs, returning :class:`_JobOutcome` objects in
        job order (``map`` preserves order on every pool)."""
        if not job_specs:
            return []
        engine = self.engine
        injector, policy = self.fault_injector, self.retry_policy
        if self.pool == "process" and self.workers > 1 and len(job_specs) > 1:
            manifests, initargs = self._process_initargs()
            try:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_process_worker_init,
                    initargs=initargs,
                ) as pool:
                    chunk = max(1, len(job_specs) // (self.workers * 4))
                    return list(
                        pool.map(_process_worker_run, job_specs, chunksize=chunk)
                    )
            finally:
                if manifests:
                    from repro.exec import shm as _shm

                    for m in manifests:
                        _shm.unlink_manifest(m)
        # Warm the shared algorithm instances sequentially so worker
        # threads never race on prepare() work (creation is lock-guarded
        # anyway; this avoids redundant layout sorts).
        for spec in job_specs:
            try:
                engine._prepare_for(spec)
            except ReproError:
                pass  # resurfaces inside the job as a structured QueryError

        def run_one(spec: QuerySpec) -> _JobOutcome:
            return _run_with_recovery(engine, spec, injector, policy)

        if self.pool == "thread" and self.workers > 1 and len(job_specs) > 1:
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            ) as pool:
                return list(pool.map(run_one, job_specs))
        return [run_one(spec) for spec in job_specs]
