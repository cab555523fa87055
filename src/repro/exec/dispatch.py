"""The execution spine under ``query_many`` and the resident service.

Everything between a planner payload — ``("single", spec)`` or
``("group", specs, backend)`` — and its :class:`_JobOutcome` s lives
here, once: the payload runner (inline, on a thread or in a process
worker), the retry loop single queries and shared-scan groups recover
through, the pool owner :class:`Dispatcher`, and :func:`absorb`, which
merges the metric snapshots process workers ship home.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.core.base import CostStats, RSResult, Stopwatch
from repro.errors import ReproError, ServiceError, TransientError
from repro.exec import shm as _shm
from repro.exec.merge import QueryError
from repro.faults.retry import RetryPolicy
from repro.obs import hooks as _obs

__all__ = ["Dispatcher", "absorb", "shared_scan_answer"]

#: The only shared-scan family today. Group membership keys on the
#: *scalar* family name (backends never change answers), so TRS and
#: VectorTRS requests group together.
_GROUP_FAMILY = "TRS"


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


def _with_retries(call, policy: RetryPolicy):
    """``call()`` retried on transient failures under ``policy``:
    ``(value, attempts, None)``, or ``(None, attempts, exc)`` with the
    terminal :class:`ReproError`."""
    attempt = 0
    while True:
        try:
            return call(), attempt + 1, None
        except TransientError as exc:
            attempt += 1
            if _obs.enabled:
                _obs.inc("repro_query_retries_total")
            try:
                policy.backoff(attempt, exc)
            except ReproError as final:
                return None, attempt, final
        except ReproError as exc:
            # Includes RetryExhaustedError escalated by the storage layer:
            # its retry budget is spent, so it is terminal here.
            return None, attempt + 1, exc


def _run_with_recovery(
    engine, spec, injector, policy: RetryPolicy
) -> _JobOutcome:
    """Answer one spec, retrying transient failures, capturing the rest.

    The recovery contract the chaos harness asserts: a transient fault
    (worker crash/timeout from the injector, or a raw transient that
    escaped the storage layer) is retried under ``policy``; retry
    exhaustion and every other library error become a structured
    :class:`QueryError` outcome. Nothing an individual query does can
    abort the batch — only genuine bugs (non-``ReproError``) propagate.
    """

    def attempt():
        if injector is not None:
            injector.query_fault(spec.query)
        cpu0 = time.thread_time()
        result, wall = engine._timed_execute(spec)
        return result, wall, time.thread_time() - cpu0

    handle = _obs.begin_job("exec.query", kind=spec.kind)
    outcome: _JobOutcome | None = None
    try:
        value, attempts, exc = _with_retries(attempt, policy)
        if exc is None:
            result, wall, cpu = value
            outcome = _JobOutcome(result, wall, None, attempts=attempts, cpu_s=cpu)
        else:
            error = QueryError.from_exception(exc, spec.query, attempts=attempts)
            outcome = _JobOutcome(None, 0.0, error, attempts=attempts)
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


# -- shared-scan groups -------------------------------------------------------


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
    from repro.core.trs import TRS
    from repro.kernels import scalar_variant

    inst = engine.__dict__.get("_shared_scans", {}).get(backend)
    if inst is None:
        with engine._lock:
            scans = engine.__dict__.setdefault("_shared_scans", {})
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
                # Adopt the layout a prepared TRS-family instance has
                # already sorted for the same attribute order.
                for algo in list(engine._algorithms.values()):
                    if (
                        isinstance(algo, TRS)
                        and scalar_variant(algo.name) == _GROUP_FAMILY
                        and algo.presort
                        and algo.attribute_order == inst.attribute_order
                        and algo._layout is not None
                    ):
                        inst.use_layout(algo._layout)
                        break
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

    def attempt():
        if injector is not None:
            for spec in specs:
                injector.query_fault(spec.query)
        shared = _shared_scan_for(engine, backend)
        cpu0 = time.thread_time()
        with Stopwatch() as watch:
            mq = shared.run_batch([s.query for s in specs])
        return mq, watch.elapsed_s, time.thread_time() - cpu0

    handle = _obs.begin_job("exec.group", kind="group")
    outcomes: list | None = None
    grouped = False
    try:
        value, _, exc = _with_retries(attempt, policy)
        grouped = exc is None
        if grouped:
            outcomes = _group_outcomes(specs, *value)
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


_THIS = sys.modules[__name__]


def _run_payload(engine, wire, injector, policy, ops=_THIS):
    """The one payload runner. ``ops._run_with_recovery`` and
    ``ops._run_group`` are looked up per call, so wrappers installed on
    the serve module (perfbench's spans) see serve payloads."""
    if wire[0] == "single":
        return ops._run_with_recovery(engine, wire[1], injector, policy)
    _, specs, backend = wire
    return ops._run_group(engine, specs, backend, injector, policy)


def absorb(out):
    """The outcome step: fold the metric snapshot a process worker
    shipped with ``out`` (an outcome or a group's list) into this
    process's registry."""
    if _obs.enabled:
        for outcome in out if isinstance(out, list) else (out,):
            _obs.registry().merge(outcome.metrics)
    return out


def _lost(wire, exc: BaseException):
    """A payload the pool lost twice: one structured error per member."""

    def lost(spec):
        err = QueryError.from_exception(exc, spec.query, attempts=2)
        return _JobOutcome(None, 0.0, err, attempts=2)

    return lost(wire[1]) if wire[0] == "single" else [lost(s) for s in wire[1]]


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


def _retry_args(policy: RetryPolicy) -> dict:
    """``policy`` as picklable constructor kwargs for process workers (a
    custom ``sleep`` hook stays local — workers use the real
    ``time.sleep``)."""
    return {
        "max_attempts": policy.max_attempts,
        "base_delay_s": policy.base_delay_s,
        "multiplier": policy.multiplier,
        "max_delay_s": policy.max_delay_s,
        "jitter": policy.jitter,
        # A None salt stays None on the wire: each worker then jitters
        # from its *own* pid, which is the whole decorrelation point.
        "jitter_salt": policy.jitter_salt,
    }


# -- process workers ----------------------------------------------------------
# Workers hold their own engine plus fault machinery (module globals set
# by the pool initializer); wires go out, _JobOutcomes come back — all
# plain picklable data.
_WORKER_ENGINE = None
_WORKER_INJECTOR = None
_WORKER_POLICY = RetryPolicy()


def _worker_init(
    dataset, engine_kwargs, manifest, maint, fault, retry_args, obs_enabled
) -> None:
    global _WORKER_ENGINE, _WORKER_INJECTOR, _WORKER_POLICY
    from repro.engine import ReverseSkylineEngine

    if obs_enabled:
        # Mirror the parent's observability state: each payload then
        # resets the worker registry, snapshots after, and ships the
        # snapshot home inside its _JobOutcome (see _worker_run).
        _obs.enable(reset_state=True)
    if manifest is not None:
        # Zero-copy path: the dataset slot arrived empty; rebuild it over
        # the parent's shared-memory segment and seed the worker's plan
        # cache from the published plan arrays (attach keeps the segment
        # mapped for the worker's lifetime — record views alias it).
        dataset = _shm.dataset_from_manifest(manifest)
        _shm.seed_plan_cache(manifest)
    _WORKER_INJECTOR = None
    if fault is not None:
        from repro.faults.inject import FaultInjector

        _WORKER_INJECTOR = FaultInjector(*fault)
    _WORKER_POLICY = RetryPolicy(**retry_args)
    kwargs = dict(
        engine_kwargs,
        log_queries=False,
        fault_injector=_WORKER_INJECTOR,
        retry_policy=_WORKER_POLICY,
    )
    if maint is None:
        _WORKER_ENGINE = ReverseSkylineEngine(dataset, **kwargs)
        return
    # Maintained parent: the worker mirrors it — same base (shm or
    # pickle), same engine family, plus the parent's delta state (a
    # published delta segment, or the blob itself). Workers never
    # compact; the parent drives their lifecycle and rebuilds pools at
    # compaction.
    from repro.maint import MaintainedEngine

    _WORKER_ENGINE = MaintainedEngine(dataset, **kwargs)
    if isinstance(maint, _shm.ShmManifest):
        maint = _shm.deltas_from_manifest(maint)
    _WORKER_ENGINE.sync_maint_state(maint)


def _worker_run(wire):
    """The process-pool entry point. A ``("maint", blob, inner)``
    envelope first syncs the worker to the parent's delta epoch
    (idempotent: stale blobs are ignored)."""
    engine = _WORKER_ENGINE
    assert engine is not None, "pool initializer did not run"
    if wire[0] == "maint":
        _, blob, wire = wire
        engine.sync_maint_state(blob)
    if _obs.enabled:
        _obs.registry().reset()
    out = _run_payload(engine, wire, _WORKER_INJECTOR, _WORKER_POLICY)
    if _obs.enabled:
        # Shipped on the first outcome. Gauges stay: they describe this
        # worker, and a zeroed copy would overwrite the parent's own.
        snap = replace(_obs.snapshot(), gauges={})
        if isinstance(out, list):
            out[0] = replace(out[0], metrics=snap)
        else:
            out = replace(out, metrics=snap)
    return out


# -- the pool owner -----------------------------------------------------------


class Dispatcher:
    """Runs planner payloads for one engine on a ``"serial"``,
    ``"thread"`` or ``"process"`` pool: per batch in the executor, for
    its lifetime in the service. Process workers build their engine from
    what :meth:`start` publishes (over shm with ``shm``; ``warm`` builds
    the plans first). ``prespawn`` verifies every worker at start and
    rebuild, holding each for 50 ms. :attr:`epoch` counts retired
    process pools; see :meth:`rebuild`.
    """

    def __init__(
        self,
        engine,
        *,
        pool: str,
        workers: int,
        fault_injector=None,
        retry_policy: RetryPolicy | None = None,
        shm: bool = False,
        warm: bool = False,
        prespawn: bool = False,
        ops=_THIS,
    ) -> None:
        self.engine = engine
        self.pool = pool
        self.workers = workers
        if fault_injector is None:
            fault_injector = getattr(engine, "fault_injector", None)
        self.fault_injector = fault_injector
        self.retry_policy = (
            retry_policy or getattr(engine, "retry_policy", None) or RetryPolicy()
        )
        self.shm = shm
        self.warm = warm
        self.prespawn = prespawn
        self.ops = ops
        self.epoch = 0
        self._executor = None
        self._manifests: tuple = ()
        self._initargs = None
        #: Latest delta wire state (see :meth:`sync_deltas`).
        self._maint_blob = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self.pool == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        elif self.pool == "process":
            self._spawn()

    def close(self) -> None:
        """Shut the pool down, then unlink what :meth:`start` published."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._release()

    def __enter__(self) -> "Dispatcher":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def rebuild(self, epoch: int, *, republish: bool = False) -> bool:
        """Replace the process pool seen at ``epoch`` (``False``: someone
        already has). Payloads queued on the old pool are cancelled;
        callers rerun them on the replacement."""
        with self._lock:
            if epoch != self.epoch:
                return False
            self.epoch += 1
            old, self._executor = self._executor, None
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            if republish:
                self._release()
            self._spawn()
            return True

    def sync_deltas(self) -> None:
        """Ship the engine's delta state with every later payload, so
        workers follow an update with no rebuild or republish."""
        self._maint_blob = self.engine._export_maint_wire()

    def worker_pids(self) -> list[int]:
        procs = getattr(self._executor, "_processes", None) or {}
        return sorted(procs.keys())

    def _spawn(self) -> None:
        if self._initargs is None:
            self._manifests, self._initargs = self._publish()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=self._initargs,
        )
        if self.prespawn:
            # Each probe holds its worker, so the probes land on distinct
            # workers and every one must start and answer.
            hold = 0.05 if self.workers > 1 else 0.0
            list(self._executor.map(time.sleep, [hold] * self.workers, timeout=60))

    def _publish(self):
        """The worker initargs, plus the shm manifests :meth:`_release`
        unlinks. With ``shm`` the dataset ships as a manifest the worker
        attaches to. A maintained engine's delta state rides along — over
        a delta segment when shm is on (same ``repro-shm-`` prefix, so the
        leak audits cover it), inline otherwise — so workers built over
        the compacted base answer at the parent's epoch."""
        engine = self.engine
        if self.warm:
            _warm_plan_cache(engine)
        manifest = None
        if self.shm:
            manifest = _shm.publish_engine(engine)
            if manifest is None and _obs.enabled:
                _obs.inc("repro_shm_fallbacks_total")
        manifests = () if manifest is None else (manifest,)
        maint = None
        export_wire = getattr(engine, "_export_maint_wire", None)
        if export_wire is not None:
            maint = export_wire()
            deltas = _shm.publish_deltas(maint) if manifest is not None else None
            if deltas is not None:
                maint = deltas
                manifests += (deltas,)
        engine_kwargs = dict(
            algorithm=engine.default_algorithm,
            memory_fraction=engine.memory_fraction,
            page_bytes=engine.page_bytes,
            backend=getattr(engine, "backend", None),
        )
        injector = self.fault_injector
        fault = None if injector is None else (injector.plan, injector.seed)
        dataset = None if manifest is not None else engine.dataset
        return manifests, (
            dataset, engine_kwargs, manifest, maint, fault,
            _retry_args(self.retry_policy), _obs.enabled,
        )

    def _release(self) -> None:
        for manifest in self._manifests:
            _shm.detach_manifest(manifest)
            _shm.unlink_manifest(manifest)
        self._manifests = ()
        self._initargs = None
        self._maint_blob = None

    # -- running payloads ----------------------------------------------------
    def run_local(self, wire):
        """Answer one payload in this process (inline or a pool thread)."""
        return _run_payload(
            self.engine, wire, self.fault_injector, self.retry_policy, self.ops
        )

    def submit(self, wire):
        """Start one payload on the thread or process pool; its future
        yields what :meth:`run` would, before :func:`absorb`."""
        with self._lock:
            if self._executor is None:
                raise ServiceError("process pool unavailable (rebuild failed)")
            if self.pool != "process":
                return self._executor.submit(self.run_local, wire)
            if self._maint_blob is not None:
                wire = ("maint", self._maint_blob, wire)
            return self._executor.submit(_worker_run, wire)

    def run(self, wires: list) -> list:
        """One entry per wire, in order: an outcome, or a group's list.
        Payloads a dead worker took down rerun once on a rebuilt pool; a
        second loss makes each member a structured error."""
        if self.pool != "process":
            # The engine builds each prepared instance once, under its lock.
            if self._executor is None:
                return [self.run_local(w) for w in wires]
            return list(self._executor.map(self.run_local, wires))
        if any(w[0] == "group" for w in wires):
            chunk = 1  # groups are few and coarse: one per dispatch
        else:
            chunk = max(1, len(wires) // (self.workers * 4))
        outs: list = []
        for retry in (False, True):
            epoch = self.epoch
            rest = wires[len(outs):]
            try:
                for out in self._executor.map(_worker_run, rest, chunksize=chunk):
                    outs.append(absorb(out))
                break
            except BrokenProcessPool as exc:
                if retry:
                    outs.extend(_lost(w, exc) for w in wires[len(outs):])
                else:
                    self.rebuild(epoch)
        return outs
