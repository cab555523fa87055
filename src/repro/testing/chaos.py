"""Chaos-equivalence harness: randomized workloads under injected faults.

The recovery contract of :mod:`repro.faults` is behavioural, so it is
verified behaviourally: replay randomized workloads (the same generator
the differential harness uses) through ``query_many`` with a
:class:`~repro.faults.FaultInjector` armed, and assert — per query, per
pool — that

- the batch **never aborts**: ``run_batch`` returns a report even when
  individual queries die;
- there are **no silent wrong answers**: every answered slot is
  bit-identical to the fault-free sequential run;
- every unanswered slot carries a **structured**
  :class:`~repro.exec.merge.QueryError` (retry exhaustion is legal, a
  raw traceback is not).

With the default plan the injector caps consecutive per-site failures
below the retry budget, so serial-pool recovery always succeeds and the
harness additionally asserts **zero** failed queries there; under
concurrent pools interleavings may exhaust a retry budget, which is
exactly the structured-error path above.

    report = verify_chaos_equivalence(trials=50, seed=7)
    assert report.ok, report.failures[0]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.faults.inject import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.testing.verify import WorkloadCase, random_workload

__all__ = ["ChaosFailure", "ChaosReport", "verify_chaos_equivalence"]


@dataclass(frozen=True)
class ChaosFailure:
    """One violation of the recovery contract (reproducible from the case)."""

    case: WorkloadCase
    pool: str
    kind: str  # "batch-abort" | "wrong-answer" | "unstructured-error" | ...
    detail: str

    def __str__(self) -> str:  # pragma: no cover - diagnostic path
        return f"[{self.pool}] {self.kind}: {self.detail} ({self.case.describe()})"


@dataclass
class ChaosReport:
    trials: int = 0
    #: (pool, trial) combinations actually executed.
    runs: int = 0
    #: Faults the injectors produced across all runs.
    faults_injected: int = 0
    #: Page-IO retries the storage layer performed to recover.
    io_retries: int = 0
    #: Queries that exhausted recovery and degraded into structured errors.
    exhausted_queries: int = 0
    failures: list[ChaosFailure] = field(default_factory=list)
    #: Pools that could not run here (e.g. no multiprocessing primitives).
    skipped_pools: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _no_sleep(_: float) -> None:
    """Backoff hook for chaos runs: determinism comes from the injector,
    so waiting real time would only slow the harness down."""


def verify_chaos_equivalence(
    *,
    trials: int = 50,
    seed: int = 0,
    pools: tuple[str, ...] = ("serial", "thread", "process"),
    plan: FaultPlan | None = None,
    batch_size: int = 5,
    workers: int = 2,
    use_cache: bool = True,
    use_plan: bool = False,
    use_shm: bool = False,
    max_failures: int = 5,
) -> ChaosReport:
    """Replay ``trials`` randomized workloads under fault injection on
    every pool kind, asserting the recovery contract (module docstring).

    ``plan`` defaults to :meth:`FaultPlan.storm` at a rate high enough
    that essentially every trial injects something. Pools that cannot
    run in this environment (sandboxes without process primitives) are
    recorded in ``skipped_pools`` rather than failing the report.

    ``use_plan`` routes every batch through the shared-scan planner
    (``plan`` is already taken — it is the FaultPlan) and ``use_shm``
    publishes datasets to process workers over shared memory; both must
    uphold the same contract, and with ``use_shm`` the harness
    additionally asserts **zero leaked shared-memory segments** after
    every batch — even when workers crashed mid-run (kind
    ``"shm-leak"``).
    """
    if trials < 1:
        raise ExperimentError(f"trials must be >= 1, got {trials}")
    if batch_size < 2:
        raise ExperimentError(f"batch_size must be >= 2, got {batch_size}")
    from repro.engine import ReverseSkylineEngine

    if plan is None:
        plan = FaultPlan.storm(0.15)
    # Guaranteed recovery on the serial pool: allow one attempt more than
    # the longest possible per-site failure streak.
    policy = RetryPolicy(
        max_attempts=plan.max_consecutive + 2, base_delay_s=0.0, sleep=_no_sleep
    )
    report = ChaosReport()
    unavailable: set[str] = set()
    for t in range(trials):
        case = random_workload(seed + t)
        report.trials += 1
        rng = np.random.default_rng((seed + t) * 6151 + 3)
        cards = case.dataset.schema.cardinalities()
        queries = [case.query] + [
            tuple(int(rng.integers(0, c)) for c in cards)
            for _ in range(batch_size - 2)
        ]
        queries.append(case.query)  # duplicate → dedup/caching under faults
        reference = ReverseSkylineEngine(
            case.dataset, page_bytes=case.page_bytes, log_queries=False
        )
        expected = [tuple(reference.query(q).record_ids) for q in queries]
        for pool in pools:
            if pool in unavailable:
                continue
            injector = FaultInjector(plan, seed=seed + t)
            engine = ReverseSkylineEngine(
                case.dataset,
                page_bytes=case.page_bytes,
                log_queries=False,
                fault_injector=injector,
                retry_policy=policy,
            )
            try:
                batch = engine.query_many(
                    queries,
                    pool=pool,
                    workers=workers,
                    cache=use_cache,
                    plan=use_plan,
                    shm=use_shm,
                )
            except (OSError, PermissionError) as exc:
                # The environment, not the contract: no process primitives.
                unavailable.add(pool)
                report.skipped_pools.append(f"{pool}: {exc}")
                continue
            except Exception as exc:  # noqa: BLE001 - the contract violation
                report.failures.append(
                    ChaosFailure(case, pool, "batch-abort", repr(exc))
                )
                continue
            report.runs += 1
            if use_shm:
                from repro.exec import shm as _shm

                leaked = _shm.active_segments()
                if leaked:
                    report.failures.append(
                        ChaosFailure(
                            case,
                            pool,
                            "shm-leak",
                            f"segments still owned after batch: {leaked}",
                        )
                    )
            # Process-pool workers rebuild the injector on their side of the
            # pickle, so the parent's counters stay zero there; the merged IO
            # stats carry the worker-side fault count home.
            report.faults_injected += (
                injector.stats().total or batch.stats.io.faults_seen
            )
            report.io_retries += batch.stats.io.retries
            for i, (want, result) in enumerate(zip(expected, batch.results)):
                if result is not None:
                    if tuple(result.record_ids) != want:
                        report.failures.append(
                            ChaosFailure(
                                case,
                                pool,
                                "wrong-answer",
                                f"slot {i}: got {tuple(result.record_ids)}, "
                                f"want {want}",
                            )
                        )
                    continue
                error = batch.errors[i]
                if error is None or not error.error_type:
                    report.failures.append(
                        ChaosFailure(
                            case,
                            pool,
                            "unstructured-error",
                            f"slot {i} unanswered without a QueryError",
                        )
                    )
                    continue
                report.exhausted_queries += 1
                if pool == "serial":
                    # With max_attempts > max_consecutive, serial recovery
                    # cannot run out of retries — exhaustion here means the
                    # retry/injection accounting is broken.
                    report.failures.append(
                        ChaosFailure(
                            case,
                            pool,
                            "serial-exhaustion",
                            f"slot {i}: {error.describe()}",
                        )
                    )
            if len(report.failures) >= max_failures:
                return report
    return report
