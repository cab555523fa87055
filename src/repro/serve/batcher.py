"""Continuous micro-batching for the resident query service.

The PR-5 batch planner groups *whole batches* handed to it at once;
a server never sees whole batches, only a trickle of concurrent
requests. The :class:`MicroBatcher` closes that gap: admitted
requests land on an asyncio queue, and the batcher drains it in
rounds — the first request opens a window of ``window_s`` seconds
(or ``max_batch`` requests, whichever fills first), then everything
collected is partitioned by the planner's compatibility key
(:func:`repro.exec.executor.planner_group_key` — layout fingerprint,
algorithm family, backend) and dispatched.

Groups of two or more compatible queries may ride one shared
:class:`~repro.core.multiquery.SharedScanTRS` scan. A shared scan
saves database passes (page IOs), not traversal work: every member
still pays its own pruning, and every member waits for the whole
group. So a round coalesces only when the service's own measurements
say the group finishes its k members no later than singles spread
over the pool's W workers::

    k * g <= ceil(k / W) * s

where g is a group's thread CPU time per member and s a single's
(:meth:`MicroBatcher.record_cost`; CPU time, because wall time counts
waiting for the GIL or a core). An unmeasured group path coalesces;
with the group measured but not the single, the round runs as singles.
The path the rule turns down still runs at exponentially spaced
decided rounds, on one request peeled off as a single or on a pair
sent as a group, so one early sample cannot lock it out for good. The
estimates reset when the service swaps its dataset. Dispatch is
fire-and-forget — the next window starts forming while the previous
round executes, so the window bounds *added latency*, never
throughput.

Deadline discipline: a request whose budget expired while queued is
resolved with :class:`~repro.errors.DeadlineError` (``stage="queue"``)
at dispatch time and is **never** handed to a worker — cancelled work
stops costing anything at the first opportunity.

Adaptive window (``adaptive=True``): the fixed window is the right
trade only under concurrency — a lone client gains nothing from
waiting and pays the whole window as added latency on every request.
The batcher keeps an EWMA of request inter-arrival times; the
*effective* window collapses to zero unless arrivals are faster than
one per window **and** the previous round actually collected more
than one request. Both signals are needed: a lone sequential client
produces a short gap right after every fast response (which alone
would re-open the window and re-tax the next request), but its rounds
are always singletons, so the window stays collapsed. Concurrency is
still detected with a zero window because requests that land while a
round executes queue up and are drained together at the next round —
a multi-member round plus a sub-window EWMA re-opens the full window.
The window cap never grows, so adaptivity only sheds latency. In
either mode the window also collapses to zero while the cost rule
says a pair would not coalesce: waiting only pays for a group.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import DeadlineError
from repro.obs import hooks as _obs

__all__ = ["PendingQuery", "MicroBatcher"]

_STOP = object()


@dataclass
class PendingQuery:
    """One admitted request waiting for (or in) execution."""

    spec: Any  # QuerySpec
    future: asyncio.Future
    #: Absolute loop-clock deadline, or None for no deadline.
    deadline: float | None
    tenant: str = "default"
    request_id: str = ""
    admitted_at: float = 0.0
    #: The planner compatibility key the batcher found for ``spec``
    #: (``None``: it can only run alone, so it never measures the single
    #: path for the cost rule).
    group_key: Any = None
    #: The result-cache key and version taken at admission; the answer
    #: is cached under them (``None``: not cacheable).
    cache_key: Any = None
    cache_version: int | None = None

    def resolve(self, result: Any) -> None:
        if not self.future.done():
            self.future.set_result(result)

    def fail(self, exc: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(exc)


@dataclass
class BatcherStats:
    rounds: int = 0
    #: Queries that went through a shared-scan group (group size >= 2).
    coalesced: int = 0
    #: Queries dispatched individually.
    singles: int = 0
    #: Queries whose deadline expired while queued (never executed).
    expired_in_queue: int = 0
    #: Rounds whose window collapsed to zero (sparse arrivals, or groups
    #: the cost rule says would not pay).
    short_windows: int = 0
    #: Rounds that sent two or more compatible requests out as singles
    #: only (the cost rule, or a re-measurement of the single path).
    split_rounds: int = 0
    group_sizes: list[int] = field(default_factory=list)


@dataclass
class _PathCost:
    """Thread CPU time one execution path has spent, per query."""

    cpu_s: float = 0.0
    queries: int = 0

    def estimate(self) -> float | None:
        return self.cpu_s / self.queries if self.queries else None


class MicroBatcher:
    """Collect admitted queries into windows; dispatch planner payloads.

    Parameters
    ----------
    group_key:
        ``spec -> key | None`` — the planner compatibility key
        (``None`` means the spec must run alone).
    dispatch:
        ``(wire, members) -> None`` — called once per payload with the
        executor wire format (``("single", spec)`` or ``("group",
        specs, backend)``) and the :class:`PendingQuery` members in
        spec order. Must not block: the service wraps execution in a
        task so the batcher can keep collecting.
    adaptive:
        Collapse the collection window to zero while the observed
        arrival rate is below one request per window (module
        docstring); ``window_s`` stays the upper bound either way.
    workers:
        The pool size W the cost rule spreads singles over.
    """

    #: EWMA smoothing for inter-arrival times: heavy enough that one
    #: stray gap does not re-open the window, light enough that a burst
    #: restores batching within a few requests.
    EWMA_ALPHA = 0.2

    def __init__(
        self,
        *,
        window_s: float,
        max_batch: int,
        group_key: Callable[[Any], Any],
        dispatch: Callable[[Any, list[PendingQuery]], None],
        clock: Callable[[], float] | None = None,
        adaptive: bool = False,
        workers: int = 1,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window_s = max(0.0, window_s)
        self.max_batch = max_batch
        self.adaptive = adaptive
        self.workers = max(1, workers)
        self._group_key = group_key
        self._dispatch = dispatch
        self._clock = clock
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._last_arrival: float | None = None
        self._ewma_interval: float | None = None
        self._last_round_size = 0
        self.stats = BatcherStats()
        self.reset_costs()

    # -- lifecycle -------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def stop(self) -> None:
        """Stop collecting; requests still queued fail at dispatch in
        the service's shutdown path (it drains the queue itself)."""
        if self._task is None:
            return
        self._queue.put_nowait(_STOP)
        await self._task
        self._task = None

    def drain(self) -> list[PendingQuery]:
        """Remove and return everything still queued (shutdown path)."""
        out: list[PendingQuery] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return out
            if item is not _STOP:
                out.append(item)

    # -- ingest ----------------------------------------------------

    def put(self, pending: PendingQuery) -> None:
        if self.adaptive:
            now = self._now()
            if self._last_arrival is not None:
                gap = now - self._last_arrival
                if self._ewma_interval is None:
                    self._ewma_interval = gap
                else:
                    self._ewma_interval += self.EWMA_ALPHA * (
                        gap - self._ewma_interval
                    )
            self._last_arrival = now
        self._queue.put_nowait(pending)

    def depth(self) -> int:
        return self._queue.qsize()

    # -- the cost rule ---------------------------------------------

    def reset_costs(self) -> None:
        """Forget both path estimates and the re-measurement schedule
        (the service calls this when it swaps its dataset)."""
        self._single = _PathCost()
        self._group = _PathCost()
        #: Per path, the decided rounds that turned it down since it last
        #: ran; past ``_probe_after`` (which doubles each time) it runs
        #: once to be measured again.
        self._idle_rounds = {"single": 0, "group": 0}
        self._probe_after = 1

    def record_cost(self, path: str, cpu_s: float, queries: int) -> None:
        """Fold one executed payload into the estimate of ``path``
        (``"single"`` or ``"group"``): ``cpu_s`` thread CPU seconds
        spent answering ``queries`` requests."""
        cost = self._group if path == "group" else self._single
        cost.cpu_s += cpu_s
        cost.queries += queries

    def cost_estimates(self) -> tuple[float | None, float | None]:
        """``(single, group per member)`` CPU seconds, ``None`` while
        that path is unmeasured."""
        return self._single.estimate(), self._group.estimate()

    def _group_pays(self, k: int) -> bool:
        """The rule: k compatible requests coalesce iff
        ``k * g <= ceil(k / W) * s`` (module docstring)."""
        s, g = self.cost_estimates()
        if g is None:
            return True
        if s is None:
            return False
        return k * g <= math.ceil(k / self.workers) * s

    def _group_size(self, k: int) -> int:
        """How many of a round's k compatible requests ride one group;
        the rest run as singles. The rule's verdict is all or none, but
        a path it has turned down for exponentially many rounds in a row
        is measured again, on the least it can run on: one request
        peeled off as a single, or a pair sent as a group. A groupable
        request that arrives alone runs the single path anyway."""
        pays = self._group_pays(k)
        if self._single.queries and self._group.queries:
            idle = "single" if pays else "group"
            self._idle_rounds[idle] += 1
            if self._idle_rounds[idle] > self._probe_after:
                self._probe_after *= 2
                return k - 1 if pays else 2
        return k if pays else 0

    def effective_window(self) -> float:
        """The collection window the next round will use: zero while the
        cost rule says a pair would not coalesce; otherwise the full
        ``window_s`` only when the arrival EWMA says a second request is
        likely to land inside it *and* the previous round proved there
        is concurrency to coalesce (module docstring). Before two
        arrivals there is no rate estimate — assume sparse (zero
        window), which is the latency-safe default."""
        if not self._group_pays(2):
            return 0.0
        if not self.adaptive:
            return self.window_s
        if self._ewma_interval is None or self._ewma_interval > self.window_s:
            return 0.0
        if self._last_round_size < 2:
            return 0.0
        return self.window_s

    # -- the collection loop ---------------------------------------

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            batch = [first]
            # The window opens when the first query of the round lands;
            # later arrivals do not extend it (no starvation).
            window = self.effective_window()
            if window <= 0.0 and self.window_s > 0.0:
                self.stats.short_windows += 1
            closes_at = self._now() + window
            # A burst that queued up while the previous round executed
            # coalesces regardless of the window — it costs no waiting.
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _STOP:
                    self._round(batch)
                    return
                batch.append(item)
            while len(batch) < self.max_batch:
                remaining = closes_at - self._now()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if item is _STOP:
                    self._round(batch)
                    return
                batch.append(item)
            self._round(batch)

    def _round(self, batch: list[PendingQuery]) -> None:
        """Partition one window's worth of queries and dispatch."""
        self.stats.rounds += 1
        self._last_round_size = len(batch)
        now = self._now()
        live: list[PendingQuery] = []
        for p in batch:
            if p.future.done():
                continue  # client gave up (e.g. wait_for timeout) — drop
            if p.deadline is not None and now >= p.deadline:
                self.stats.expired_in_queue += 1
                if _obs.enabled:
                    _obs.inc("repro_serve_deadline_total", 1, stage="queue")
                p.fail(
                    DeadlineError(
                        "deadline expired while queued", stage="queue"
                    )
                )
                continue
            live.append(p)
        if not live:
            return

        groups: dict[Any, list[PendingQuery]] = {}
        singles: list[PendingQuery] = []
        for p in live:
            key = p.group_key = self._group_key(p.spec)
            if key is None:
                singles.append(p)
            else:
                groups.setdefault(key, []).append(p)
        split = False
        for key, members in groups.items():
            n = self._group_size(len(members)) if len(members) >= 2 else 0
            if n < 2:
                split = split or len(members) >= 2
                singles.extend(members)
                continue
            singles.extend(members[n:])
            members = members[:n]
            self._idle_rounds["group"] = 0
            self.stats.coalesced += len(members)
            self.stats.group_sizes.append(len(members))
            if _obs.enabled:
                _obs.inc("repro_serve_groups_total")
                _obs.observe("repro_serve_group_size", len(members))
            wire = ("group", tuple(p.spec for p in members), key[2])
            self._dispatch(wire, members)
        if split:
            self.stats.split_rounds += 1
        if any(p.group_key is not None for p in singles):
            self._idle_rounds["single"] = 0
        for p in singles:
            self.stats.singles += 1
            self._dispatch(("single", p.spec), [p])
