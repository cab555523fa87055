"""The resident query service: warm engine, persistent pool, admission.

:class:`QueryService` is the event-loop-side owner of everything a
one-shot :class:`~repro.exec.executor.QueryExecutor` builds and throws
away per batch:

- the warm :class:`~repro.engine.ReverseSkylineEngine` (layout sort,
  prepared algorithm instances, numpy plans — paid once at startup),
- the process-wide plan cache and the engine's result cache,
- a *persistent* worker pool. In ``process`` mode the dataset and the
  warmed plans are published once over shared memory
  (:mod:`repro.exec.shm`) and every worker attaches at initialization;
  requests then ship only specs, never data.

Requests flow admission → micro-batcher → pool::

    submit() --admit--> result-cache probe --miss--> MicroBatcher
        window closes --> planner groups --> pool (shared scans)
        outcome --> future --> submit() returns

Deadlines are enforced at three stages (the wire error names which):
``queue`` (expired while batching — never executed), ``dispatch``
(expired between batching and pool submit — never executed) and
``execute`` (the awaiting client timed out; sunk worker cost is
bounded by one payload).

A crashed pool worker (``BrokenProcessPool``) triggers one in-place
pool rebuild reusing the published manifest, and the in-flight payload
is retried once — the retried result is bit-identical because answers
depend only on the spec. A second failure surfaces as a structured
``query-error``.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import (
    AlgorithmError,
    DeadlineError,
    OverloadError,
    ReproError,
    ServiceError,
)
from repro.exec.cache import CacheKey
from repro.exec.executor import (
    QueryExecutor,
    QuerySpec,
    _process_worker_init,
    _process_worker_run_payload,
    _run_group,
    _run_with_recovery,
    planner_group_key,
    shared_scan_answer,
)
from repro.obs import hooks as _obs
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher, PendingQuery
from repro.serve.protocol import BadRequest, ServeRequest

__all__ = ["ServiceConfig", "ServiceStats", "QueryService", "ExecutionFailed"]


class ExecutionFailed(ReproError):
    """A query failed past recovery; wraps the structured QueryError."""

    def __init__(self, query_error) -> None:
        super().__init__(query_error.describe())
        self.query_error = query_error


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000.0


def _worker_ident(delay_s: float) -> int:
    """Pool-worker probe: hold the worker briefly so concurrent probes
    land on distinct workers, then report its pid. Module-level so the
    process pool can pickle it."""
    time.sleep(delay_s)
    return os.getpid()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`QueryService`."""

    #: ``"thread"`` shares the warm engine under the GIL (best when the
    #: batcher coalesces most work); ``"process"`` sidesteps the GIL via
    #: the persistent shm-fed pool.
    pool: str = "thread"
    workers: int = 2
    #: Max admitted-but-unfinished requests before shedding.
    queue_depth: int = 64
    #: Micro-batch collection window (seconds) and size cap.
    batch_window_s: float = 0.002
    max_batch: int = 32
    #: Collapse the window to zero while arrivals are slower than one
    #: request per window — a lone client then never pays the window as
    #: added latency (see :class:`repro.serve.batcher.MicroBatcher`).
    adaptive_window: bool = True
    #: Per-tenant token bucket; rate 0 disables throttling.
    tenant_rate: float = 0.0
    tenant_burst: float = 0.0
    #: Applied when a request carries no deadline; ``None`` = unbounded.
    default_deadline_s: float | None = None
    #: Warm + use the numpy plan cache at startup.
    plan: bool = True
    #: Process pool only: feed workers through shared memory.
    shm: bool = True
    #: Serve repeat queries from the engine's result cache.
    cache: bool = True

    def __post_init__(self) -> None:
        if self.pool not in ("thread", "process"):
            raise AlgorithmError(
                f"unknown service pool {self.pool!r}; known: thread, process"
            )
        if self.workers < 1:
            raise AlgorithmError(f"workers must be >= 1, got {self.workers}")


@dataclass
class ServiceStats:
    """Always-on counters (obs metrics mirror these when enabled)."""

    admitted: int = 0
    served: int = 0
    failed: int = 0
    cache_hits: int = 0
    deadline_queue: int = 0
    deadline_dispatch: int = 0
    deadline_execute: int = 0
    pool_rebuilds: int = 0
    shed: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "served": self.served,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "deadline": {
                "queue": self.deadline_queue,
                "dispatch": self.deadline_dispatch,
                "execute": self.deadline_execute,
            },
            "pool_rebuilds": self.pool_rebuilds,
            "shed": dict(self.shed),
        }


class QueryService:
    """Owns the engine, pool and batcher; answers :class:`ServeRequest`s.

    Single-loop discipline: every method except the pool-side callables
    runs on the asyncio event loop, so the counters and the admission
    state need no locks.
    """

    def __init__(self, engine, config: ServiceConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self._admission = AdmissionController(
            queue_depth=self.config.queue_depth,
            workers=self.config.workers,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
        )
        self._batcher = MicroBatcher(
            window_s=self.config.batch_window_s,
            max_batch=self.config.max_batch,
            group_key=lambda spec: planner_group_key(self.engine, spec),
            dispatch=self._dispatch,
            adaptive=self.config.adaptive_window,
            workers=self.config.workers,
        )
        self._pool = None
        #: Bumped on every successful rebuild; payload tasks remember the
        #: epoch they submitted against so concurrent BrokenProcessPool
        #: failures trigger exactly one rebuild (see :meth:`_ensure_pool`).
        self._pool_epoch = 0
        self._rebuild_lock = asyncio.Lock()
        self._manifests: tuple = ()
        self._initargs = None
        #: Latest maintained-engine delta wire state; every process-pool
        #: payload is wrapped in a ``("maint", blob, wire)`` envelope so
        #: workers sync to the parent's epoch lazily, without a pool
        #: rebuild or republish (sync is idempotent — stale blobs no-op).
        self._maint_blob = None
        self._inflight = 0
        self._running = False
        self._tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------

    async def start(self) -> None:
        """Warm the engine, publish shared state, spawn the pool."""
        if self._running:
            return
        loop = asyncio.get_running_loop()
        # Preparation is CPU-heavy (layout sort, plan build) — run it off
        # the loop so a server starting under traffic stays responsive.
        await loop.run_in_executor(
            None, lambda: self.engine.warm(plans=self.config.plan)
        )
        if self.config.pool == "process":
            await loop.run_in_executor(None, self._build_process_pool)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-serve",
            )
        self._running = True
        self._batcher.start()
        if _obs.enabled:
            _obs.set_gauge("repro_serve_running", 1.0)

    def _build_process_pool(self) -> None:
        """Publish the dataset + plans once, then start a pool whose
        initializer attaches every worker to the published segment."""
        helper = QueryExecutor(
            self.engine,
            pool="process",
            workers=self.config.workers,
            plan=self.config.plan,
            shm=self.config.shm,
        )
        if self._initargs is None:
            self._manifests, self._initargs = helper._process_initargs(
                warm=self.config.plan
            )
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_process_worker_init,
            initargs=self._initargs,
        )
        # Pre-spawn and verify every worker now, not on first request.
        hold = 0.05 if self.config.workers > 1 else 0.0
        probes = [
            self._pool.submit(_worker_ident, hold)
            for _ in range(self.config.workers)
        ]
        self._worker_pids = sorted({p.result(timeout=60) for p in probes})

    def worker_pids(self) -> list[int]:
        """Pids of the live pool workers (process pool; chaos tests)."""
        if self.config.pool != "process" or self._pool is None:
            return []
        procs = getattr(self._pool, "_processes", None) or {}
        return sorted(procs.keys())

    async def stop(self) -> None:
        """Stop admitting, fail queued work, tear down pool + segments."""
        if not self._running:
            return
        self._running = False
        await self._batcher.stop()
        for p in self._batcher.drain():
            p.fail(
                OverloadError(
                    "service shutting down", retry_after_s=1.0, reason="shutdown"
                )
            )
        # Let in-flight payload tasks finish (their results still land).
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        pool, self._pool = self._pool, None
        if pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True)
            )
        self._release_shared_state()
        if _obs.enabled:
            _obs.set_gauge("repro_serve_running", 0.0)

    def _release_shared_state(self) -> None:
        """Unlink the published segments (base + any delta segment) and
        drop any attachment of them — the /dev/shm audit must come back
        clean after shutdown."""
        from repro.exec import shm as _shm

        for manifest in self._manifests:
            _shm.detach_manifest(manifest)
            _shm.unlink_manifest(manifest)
        self._manifests = ()
        self._initargs = None

    async def swap_dataset(self, dataset) -> None:
        """Replace the served dataset: quiesce, release the old shared
        segment (detach + unlink), rebuild engine state, republish."""
        from repro.engine import ReverseSkylineEngine

        was_running = self._running
        if was_running:
            await self.stop()
        # The path costs were measured on the old dataset's shape.
        self._batcher.reset_costs()
        old = self.engine
        self.engine = ReverseSkylineEngine(
            dataset,
            algorithm=old.default_algorithm,
            backend=getattr(old, "backend", None),
            memory_fraction=old.memory_fraction,
            page_bytes=old.page_bytes,
            log_queries=False,
        )
        if was_running:
            await self.start()

    async def apply_updates(self, inserts=(), deletes=()) -> dict:
        """Absorb an update batch into a served
        :class:`~repro.maint.MaintainedEngine` without quiescing reads.

        Unlike :meth:`swap_dataset` (stop-the-world), in-flight and
        concurrent queries keep running against the epoch they started
        on. The batch is applied off-loop; afterwards, process-pool
        workers are brought to the new epoch lazily by wrapping every
        payload in a ``("maint", blob, wire)`` envelope — no pool
        rebuild, no republish. Only a *compaction* (which rewrites the
        base the shm segment and worker engines were built from) forces
        a pool rebuild, and even then in-flight payloads retry against
        the replacement pool instead of failing.
        """
        apply = getattr(self.engine, "apply_updates", None)
        if apply is None:
            raise BadRequest(
                "the served engine does not accept updates; "
                "serve a repro.maint.MaintainedEngine"
            )
        loop = asyncio.get_running_loop()
        res = await loop.run_in_executor(
            None, lambda: apply(inserts=inserts, deletes=deletes)
        )
        if self.config.pool == "process" and self._pool is not None:
            if res.compacted:
                self._maint_blob = None
                await self._rebuild_pool_for_base()
            else:
                self._maint_blob = self.engine._export_maint_wire()
        return {
            "epoch": res.epoch,
            "inserted": res.inserted,
            "deleted": res.deleted,
            "compacted": res.compacted,
            "delta_records": res.delta_records,
            "tombstones": res.tombstones,
        }

    async def _rebuild_pool_for_base(self) -> None:
        """Compaction rewrote the base dataset: the published segment
        and every worker's attached engine describe the *old* base, so
        replace the pool against a freshly republished segment. Payloads
        in flight on the old pool see their futures cancelled and retry
        through :meth:`_ensure_pool`, which observes the bumped epoch
        and resubmits to the replacement — no request is failed."""
        async with self._rebuild_lock:
            self.stats.pool_rebuilds += 1
            if _obs.enabled:
                _obs.inc("repro_serve_pool_rebuilds_total")

            def _swap() -> None:
                old, self._pool = self._pool, None
                if old is not None:
                    old.shutdown(wait=False, cancel_futures=True)
                self._release_shared_state()
                self._build_process_pool()

            await asyncio.get_running_loop().run_in_executor(None, _swap)
            self._pool_epoch += 1

    async def drain(self, deadline_s: float = 5.0) -> None:
        """Graceful shutdown: stop admitting, *answer* everything
        already accepted, then tear down.

        The contrast with :meth:`stop` is what happens to queued work:
        ``stop`` fails it with :class:`OverloadError`, ``drain``
        dispatches it and waits up to ``deadline_s`` for the answers to
        settle. Only payloads still running past the deadline are
        cancelled (their clients get a typed :class:`ServiceError`)."""
        if not self._running:
            return
        loop = asyncio.get_running_loop()
        deadline = loop.time() + deadline_s
        self._running = False  # new submits shed with reason="shutdown"
        await self._batcher.stop()
        # The collection loop is gone; anything still queued would
        # otherwise hang its client forever — dispatch it now.
        for p in self._batcher.drain():
            if not p.future.done():
                self._dispatch(("single", p.spec), [p])
        if self._tasks:
            await asyncio.wait(
                tuple(self._tasks), timeout=max(0.0, deadline - loop.time())
            )
        for t in tuple(self._tasks):
            if not t.done():
                t.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        pool, self._pool = self._pool, None
        if pool is not None:
            await loop.run_in_executor(None, lambda: pool.shutdown(wait=True))
        self._release_shared_state()
        if _obs.enabled:
            _obs.set_gauge("repro_serve_running", 0.0)

    # -- request path ----------------------------------------------

    def _spec_for(self, req: ServeRequest) -> QuerySpec:
        try:
            query = self.engine.dataset.validate_query(req.query)
        except ReproError as exc:
            raise BadRequest(f"query failed validation: {exc}") from exc
        try:
            return QuerySpec(
                query=query,
                kind=req.kind,
                k=req.k if req.k is not None else 1,
                algorithm=req.algorithm,
                attributes=req.attributes,
            )
        except ReproError as exc:
            raise BadRequest(str(exc)) from exc

    def _cache_key(self, spec: QuerySpec) -> CacheKey | None:
        if not self.config.cache:
            return None
        try:
            return CacheKey(
                kind=spec.kind,
                algorithm=spec.algorithm or self.engine.default_algorithm,
                fingerprint=self.engine.layout_fingerprint(),
                query=tuple(spec.query),
                k=spec.k,
                attributes=(
                    self.engine._resolve_indices(spec.attributes)
                    if spec.attributes is not None
                    else None
                ),
            )
        except ReproError:
            return None

    async def submit(self, req: ServeRequest) -> dict:
        """Answer one request; raises the typed service errors
        (:class:`OverloadError`, :class:`DeadlineError`,
        :class:`BadRequest`, :class:`ExecutionFailed`)."""
        if not self._running:
            raise OverloadError(
                "service is not running", retry_after_s=1.0, reason="shutdown"
            )
        loop = asyncio.get_running_loop()
        spec = self._spec_for(req)
        self._admission.admit(req.tenant, self._inflight)
        self.stats.admitted += 1
        if _obs.enabled:
            _obs.inc("repro_serve_requests_total", 1, tenant=req.tenant)

        key = self._cache_key(spec)
        if key is not None:
            hit = self.engine.result_cache().get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                if _obs.enabled:
                    _obs.inc("repro_serve_cache_hits_total")
                return self._payload(hit, cached=True, planned=False, wall_s=0.0)

        deadline_s = (
            req.deadline_ms / 1000.0
            if req.deadline_ms is not None
            else self.config.default_deadline_s
        )
        deadline = loop.time() + deadline_s if deadline_s is not None else None
        pending = PendingQuery(
            spec=spec,
            future=loop.create_future(),
            deadline=deadline,
            tenant=req.tenant,
            request_id=req.request_id,
            admitted_at=loop.time(),
        )
        self._inflight += 1
        try:
            self._batcher.put(pending)
            if deadline is None:
                outcome, wall_s = await pending.future
            else:
                try:
                    # wait_for cancels the future on timeout; the batcher
                    # and dispatcher skip done futures, so expiry here
                    # also cancels work that has not started yet.
                    outcome, wall_s = await asyncio.wait_for(
                        pending.future, deadline - loop.time()
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    self.stats.deadline_execute += 1
                    if _obs.enabled:
                        _obs.inc(
                            "repro_serve_deadline_total", 1, stage="execute"
                        )
                    raise DeadlineError(
                        f"deadline of {deadline_s * 1000:.0f}ms expired",
                        stage="execute",
                    ) from None
        except DeadlineError as exc:
            if exc.stage == "queue":
                self.stats.deadline_queue += 1
            elif exc.stage == "dispatch":
                self.stats.deadline_dispatch += 1
            raise
        finally:
            self._inflight -= 1
        self.stats.served += 1
        return self._payload(
            outcome.result,
            cached=False,
            planned=shared_scan_answer(outcome),
            wall_s=wall_s,
        )

    def _payload(
        self, result, *, cached: bool, planned: bool, wall_s: float
    ) -> dict:
        """One reply body. ``planned`` and ``cached`` say what happened to
        *this* request: computed inside a shared-scan group, or served
        from the result cache (a cached group answer is not planned)."""
        return {
            "records": list(result.record_ids),
            "algorithm": result.algorithm,
            "backend": getattr(result, "backend", None),
            "planned": planned,
            "cached": cached,
            "wall_ms": wall_s * 1000.0,
        }

    def stats_payload(self) -> dict:
        """The ``stats`` op response body."""
        out = self.stats.as_dict()
        out["shed"] = dict(self._admission.shed_by_reason)
        out["shed_total"] = self._admission.shed_total
        out["inflight"] = self._inflight
        out["queue_depth"] = self.config.queue_depth
        out["pool"] = self.config.pool
        out["workers"] = self.config.workers
        b = self._batcher.stats
        single_cpu, group_cpu = self._batcher.cost_estimates()
        out["batcher"] = {
            "rounds": b.rounds,
            "coalesced": b.coalesced,
            "singles": b.singles,
            "expired_in_queue": b.expired_in_queue,
            "short_windows": b.short_windows,
            "split_rounds": b.split_rounds,
            "effective_window_ms": self._batcher.effective_window() * 1000.0,
            "max_group": max(b.group_sizes, default=0),
            "single_cpu_ms": _ms(single_cpu),
            "group_cpu_ms_per_query": _ms(group_cpu),
        }
        out["latency"] = self.engine.latency_summary()
        from repro.kernels import fused as fused_kernels

        backend = getattr(self.engine, "backend", None)
        out["kernels"] = {
            "fused_groups_run": fused_kernels.fused_groups_run(),
            # The concrete kernel tier batches run on right now.
            "tier": "python" if backend in (None, "python") else "numpy",
        }
        return out

    # -- dispatch / execution --------------------------------------

    def _dispatch(self, wire, members: list[PendingQuery]) -> None:
        """Batcher callback: run one planner payload without blocking
        the collection loop."""
        task = asyncio.get_running_loop().create_task(
            self._execute_payload(wire, members)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _execute_payload(self, wire, members: list[PendingQuery]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[PendingQuery] = []
        for p in members:
            if p.future.done():
                continue  # client gave up; work is cancelled before it starts
            if p.deadline is not None and now >= p.deadline:
                self.stats.deadline_dispatch += 1
                if _obs.enabled:
                    _obs.inc("repro_serve_deadline_total", 1, stage="dispatch")
                p.fail(
                    DeadlineError(
                        "deadline expired before dispatch", stage="dispatch"
                    )
                )
                continue
            live.append(p)
        if not live:
            return
        # Re-shape the wire after deadline attrition: a group that lost
        # members must still match its spec list one-for-one.
        if wire[0] == "group":
            if len(live) >= 2:
                wire = ("group", tuple(p.spec for p in live), wire[2])
            else:
                wire = ("single", live[0].spec)

        start = loop.time()
        try:
            out = await self._run_wire(wire)
        except ReproError as exc:
            for p in live:
                p.fail(exc)
            self.stats.failed += len(live)
            return
        except BaseException as exc:
            # Anything non-library that escapes the pool path (a second
            # BrokenProcessPool on the post-rebuild retry, a rebuild that
            # could not respawn workers, cancellation at teardown) must
            # still settle every member future — a client with no
            # deadline would otherwise await forever.
            err = ServiceError(f"query execution failed in the pool: {exc!r}")
            err.__cause__ = exc if isinstance(exc, Exception) else None
            for p in live:
                p.fail(err)
            self.stats.failed += len(live)
            if _obs.enabled:
                _obs.inc("repro_serve_failures_total", len(live))
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        wall_s = loop.time() - start
        self._admission.observe_service_time(wall_s / len(live))
        if _obs.enabled:
            _obs.observe("repro_serve_payload_seconds", wall_s)
        outcomes = out if isinstance(out, list) else [out]
        self._record_cost(wire, live, outcomes)
        for p, outcome in zip(live, outcomes):
            self._settle(p, outcome, wall_s)

    def _record_cost(self, wire, live: list[PendingQuery], outcomes) -> None:
        """Feed the batcher's cost rule: a group that ran as one shared
        scan measures the group path, a groupable request that ran alone
        measures the single path. Failures and groups that fell back to
        per-member runs measure neither."""
        if wire[0] == "group":
            if all(shared_scan_answer(o) for o in outcomes):
                cpu_s = sum(o.cpu_s for o in outcomes)
                self._batcher.record_cost("group", cpu_s, len(outcomes))
        elif live[0].group_key is not None and outcomes[0].error is None:
            self._batcher.record_cost("single", outcomes[0].cpu_s, 1)

    def _settle(self, p: PendingQuery, outcome, wall_s: float) -> None:
        if outcome.error is not None:
            self.stats.failed += 1
            if _obs.enabled:
                _obs.inc("repro_serve_failures_total")
            self.engine._record_failure("serve-query", p.spec, outcome.error)
            p.fail(ExecutionFailed(outcome.error))
            return
        key = self._cache_key(p.spec)
        if key is not None:
            self.engine.result_cache().put(key, outcome.result)
        self.engine._record(
            "serve-query", outcome.result, wall_time_s=wall_s, cached=False
        )
        p.resolve((outcome, wall_s))

    async def _run_wire(self, wire):
        """Run one payload on the pool; process pools get one in-place
        rebuild + retry if a worker died mid-request."""
        loop = asyncio.get_running_loop()
        if self.config.pool == "process":
            pool, epoch = self._pool, self._pool_epoch
            if pool is None:
                raise ServiceError("process pool unavailable (rebuild failed)")
            blob = self._maint_blob
            if blob is not None:
                # Piggyback the latest delta state on the payload; the
                # worker's sync is idempotent (epoch-guarded) so repeat
                # delivery costs one dict comparison, never a rebuild.
                wire = ("maint", blob, wire)
            try:
                return await loop.run_in_executor(
                    pool, _process_worker_run_payload, wire
                )
            except (BrokenProcessPool, asyncio.CancelledError, RuntimeError) as exc:
                # BrokenProcessPool: a worker died under us. The other
                # two are collateral of a *concurrent* rebuild tearing
                # down the pool we submitted to (cancel_futures cancels
                # our future; submit-after-shutdown raises RuntimeError)
                # — but only when the pool really was swapped out; a
                # cancellation or RuntimeError with our pool still
                # current is not ours to absorb.
                if not isinstance(exc, BrokenProcessPool) and pool is self._pool:
                    raise
                await self._ensure_pool(epoch)
                pool = self._pool
                if pool is None:
                    raise ServiceError(
                        "process pool unavailable (rebuild failed)"
                    ) from None
                # Retry once: answers depend only on the spec, so the
                # retried result is bit-identical to an undisturbed run.
                return await loop.run_in_executor(
                    pool, _process_worker_run_payload, wire
                )
        return await loop.run_in_executor(self._pool, self._run_inline, wire)

    async def _ensure_pool(self, epoch: int) -> None:
        """Serialize pool rebuilds. One dead worker fails *every*
        in-flight payload with ``BrokenProcessPool``, so several tasks
        arrive here at once; only the first to take the lock rebuilds,
        the rest see the epoch has moved on and simply retry against the
        replacement — a second rebuild would tear down a healthy pool
        mid-verification."""
        async with self._rebuild_lock:
            if self._pool_epoch != epoch and self._pool is not None:
                return  # someone else already replaced the pool we saw break
            self.stats.pool_rebuilds += 1
            if _obs.enabled:
                _obs.inc("repro_serve_pool_rebuilds_total")
            await asyncio.get_running_loop().run_in_executor(
                None, self._rebuild_pool
            )
            self._pool_epoch += 1

    def _rebuild_pool(self) -> None:
        """Replace a broken process pool, reusing the published manifest
        and initargs (the shared segment survived the worker). On a
        failed rebuild ``self._pool`` stays ``None`` and callers surface
        a typed error instead of executing on the default executor."""
        broken, self._pool = self._pool, None
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        self._build_process_pool()

    def _run_inline(self, wire):
        """Thread-pool payload runner against the shared warm engine."""
        injector = getattr(self.engine, "fault_injector", None)
        policy = getattr(self.engine, "retry_policy", None)
        if policy is None:
            from repro.faults.retry import RetryPolicy

            policy = RetryPolicy()
        if wire[0] == "single":
            return _run_with_recovery(self.engine, wire[1], injector, policy)
        _, specs, backend = wire
        return _run_group(self.engine, specs, backend, injector, policy)
