"""The resident query service: warm engine, persistent pool, admission.

:class:`QueryService` is the event-loop-side owner of everything a
one-shot :class:`~repro.exec.executor.QueryExecutor` builds and throws
away per batch:

- the warm :class:`~repro.engine.ReverseSkylineEngine` (layout sort,
  prepared algorithm instances, numpy plans — paid once at startup),
- the process-wide plan cache and the engine's result cache,
- a *persistent* worker pool, owned by the same
  :class:`~repro.exec.dispatch.Dispatcher` the executor runs batches
  on. In ``process`` mode the dataset and the warmed plans are
  published once over shared memory (:mod:`repro.exec.shm`) and every
  worker attaches at initialization; requests then ship only specs,
  never data.

Requests flow admission → micro-batcher → pool::

    submit() --admit--> result-cache probe --miss--> MicroBatcher
        window closes --> planner groups --> pool (shared scans)
        outcome --> future --> submit() returns

Deadlines are enforced at three stages (the wire error names which):
``queue`` (expired while batching — never executed), ``dispatch``
(expired between batching and pool submit — never executed) and
``execute`` (the awaiting client timed out; sunk worker cost is
bounded by one payload).

A crashed pool worker (``BrokenProcessPool``) and a compaction take
one rebuild path (:meth:`QueryService._rebuild`): the first reuses the
published segment, the second republishes over the compacted base.
Requests that arrive during a rebuild wait for it; payloads the old
pool lost are retried once on the replacement — the retried result is
bit-identical because answers depend only on the spec. A second
failure surfaces as a structured ``query-error``.
"""

from __future__ import annotations

import asyncio
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from repro.errors import (
    AlgorithmError,
    DeadlineError,
    OverloadError,
    ReproError,
    ServiceError,
)
from repro.exec.cache import CacheKey
# In-process payloads look _run_group and _run_with_recovery up on this
# module (see _new_spine), so wrappers installed here see serve payloads.
from repro.exec.dispatch import (  # noqa: F401
    Dispatcher,
    _run_group,
    _run_with_recovery,
    absorb,
    shared_scan_answer,
)
from repro.exec.executor import QuerySpec, planner_group_key
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
        out = asdict(self)
        out["deadline"] = {
            stage: out.pop(f"deadline_{stage}")
            for stage in ("queue", "dispatch", "execute")
        }
        return out


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
        self._spine = self._new_spine()
        #: Held for the whole of a pool rebuild (see :meth:`_rebuild`); a
        #: payload that arrives meanwhile waits on it.
        self._rebuild_lock = asyncio.Lock()
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
        await loop.run_in_executor(None, self._spine.start)
        self._running = True
        self._batcher.start()
        if _obs.enabled:
            _obs.set_gauge("repro_serve_running", 1.0)

    def _new_spine(self) -> Dispatcher:
        return Dispatcher(
            self.engine,
            pool=self.config.pool,
            workers=self.config.workers,
            shm=self.config.shm,
            warm=self.config.plan,
            # Start and verify every worker now, not on first request.
            prespawn=True,
            ops=sys.modules[__name__],
        )

    def worker_pids(self) -> list[int]:
        """Pids of the live pool workers (process pool; chaos tests)."""
        return self._spine.worker_pids()

    async def stop(self) -> None:
        """Stop admitting, fail queued work, let in-flight payloads
        finish (their results still land), tear down pool + segments."""
        await self._shut_down(answer_queued=False, deadline_s=None)

    async def _shut_down(
        self, *, answer_queued: bool, deadline_s: float | None
    ) -> None:
        if not self._running:
            return
        loop = asyncio.get_running_loop()
        self._running = False  # new submits shed with reason="shutdown"
        await self._batcher.stop()
        for p in self._batcher.drain():
            if not answer_queued:
                p.fail(
                    OverloadError(
                        "service shutting down", retry_after_s=1.0, reason="shutdown"
                    )
                )
            elif not p.future.done():
                # The collection loop is gone; anything still queued would
                # otherwise hang its client forever — dispatch it now.
                self._dispatch(("single", p.spec), [p])
        if self._tasks and deadline_s is not None:
            await asyncio.wait(tuple(self._tasks), timeout=deadline_s)
            for t in tuple(self._tasks):
                if not t.done():
                    t.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # Then the pool and its segments: the /dev/shm audit must be clean.
        await loop.run_in_executor(None, self._spine.close)
        if _obs.enabled:
            _obs.set_gauge("repro_serve_running", 0.0)

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
        self._spine = self._new_spine()
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
        a pool rebuild: requests that arrive meanwhile wait for it, and
        payloads the old pool drops rerun on the replacement.
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
        if self._running and self.config.pool == "process":
            if res.compacted:
                await self._rebuild(republish=True)
            else:
                self._spine.sync_deltas()
        return {
            "epoch": res.epoch,
            "inserted": res.inserted,
            "deleted": res.deleted,
            "compacted": res.compacted,
            "delta_records": res.delta_records,
            "tombstones": res.tombstones,
        }

    async def _rebuild(self, epoch: int | None = None, *, republish=False) -> None:
        """The one rebuild path: a dead worker passes the epoch it saw, a
        compaction ``republish`` (any epoch). New payloads wait on the
        lock meanwhile; the epoch guard turns the rest of a stampede of
        failed payloads into no-ops that retry on the new pool."""
        async with self._rebuild_lock:
            if epoch is None:
                epoch = self._spine.epoch
            rebuilt = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._spine.rebuild(epoch, republish=republish)
            )
            if rebuilt:
                self.stats.pool_rebuilds += 1
                if _obs.enabled:
                    _obs.inc("repro_serve_pool_rebuilds_total")

    async def drain(self, deadline_s: float = 5.0) -> None:
        """Graceful shutdown: stop admitting, *answer* everything
        already accepted, then tear down.

        The contrast with :meth:`stop` is what happens to queued work:
        ``stop`` fails it with :class:`OverloadError`, ``drain``
        dispatches it and waits up to ``deadline_s`` for the answers to
        settle. Only payloads still running past the deadline are
        cancelled (their clients get a typed :class:`ServiceError`)."""
        await self._shut_down(answer_queued=True, deadline_s=deadline_s)

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

        key = version = None
        if self.config.cache:
            cache = self.engine.result_cache()
            # Key and version are taken at admission and the answer is
            # cached under them (_settle): an update landing meanwhile bumps
            # the version, so no answer is cached under another epoch's key.
            version = cache.version
            try:
                key = CacheKey.of(self.engine, spec, self.engine.layout_fingerprint())
            except ReproError:
                pass
        if key is not None:
            hit = cache.get(key)
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
            cache_key=key,
            cache_version=version,
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
        except BaseException as exc:
            # Whatever escapes the pool path — a library error, a second
            # BrokenProcessPool on the post-rebuild retry, a rebuild that
            # could not respawn workers, cancellation at teardown — must
            # still settle every member future: a client with no
            # deadline would otherwise await forever.
            err = exc
            if not isinstance(exc, ReproError):
                err = ServiceError(f"query execution failed in the pool: {exc!r}")
                err.__cause__ = exc if isinstance(exc, Exception) else None
            for p in live:
                p.fail(err)
            self.stats.failed += len(live)
            if _obs.enabled:
                _obs.inc("repro_serve_failures_total", len(live))
            if not isinstance(exc, Exception):
                raise  # cancellation, interrupt, exit
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
        if p.cache_key is not None:
            self.engine.result_cache().put(
                p.cache_key, outcome.result, version=p.cache_version
            )
        self.engine._record(
            "serve-query", outcome.result, wall_time_s=wall_s, cached=False
        )
        p.resolve((outcome, wall_s))

    async def _run_wire(self, wire):
        """Run one payload on the pool, after any rebuild under way; a
        payload the pool lost reruns once on the replacement."""
        spine = self._spine
        for retry in (False, True):
            if self._rebuild_lock.locked():
                async with self._rebuild_lock:
                    pass
            epoch = spine.epoch
            try:
                return absorb(await asyncio.wrap_future(spine.submit(wire)))
            except (BrokenProcessPool, asyncio.CancelledError) as exc:
                # A dead worker, or a rebuild that retired our pool and
                # cancelled the future — not this task being cancelled.
                lost = isinstance(exc, BrokenProcessPool) or epoch != spine.epoch
                if retry or not lost:
                    raise
                await self._rebuild(epoch)
