"""Fault injection and recovery: plans, injectors, retry policies, and
the storage layer's behaviour under injected faults.

The load-bearing invariants:

- injection is a pure function of (seed, site, consultation) — replays
  are bit-identical, and ``max_consecutive`` bounds failure streaks;
- recovered runs return the same answers *and the same logical IO
  counts* as fault-free runs (retries are accounted separately);
- torn appends are repaired by the retry (page commits are idempotent);
- exhausted retries surface one structured ``RetryExhaustedError``
  naming the failing site.
"""

import pickle

import pytest

from repro.data.schema import Schema
from repro.errors import (
    ReproError,
    RetryExhaustedError,
    StorageError,
    TransientError,
    TransientIOError,
    WorkerCrashError,
)
from repro.faults import NO_RETRY, FaultInjector, FaultPlan, RetryPolicy
from repro.storage.codec import RecordCodec
from repro.storage.disk import DiskSimulator


def no_sleep(_):
    pass


def fast_policy(attempts=4):
    return RetryPolicy(max_attempts=attempts, base_delay_s=0.0, sleep=no_sleep)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ReproError, match="read_error_rate"):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ReproError, match="crash_rate"):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ReproError, match="latency_s"):
            FaultPlan(latency_s=-1.0)
        with pytest.raises(ReproError, match="max_consecutive"):
            FaultPlan(max_consecutive=-1)

    def test_storm_enables_everything(self):
        plan = FaultPlan.storm(0.2)
        assert plan.any_io_faults and plan.any_query_faults

    def test_io_only_has_no_query_faults(self):
        plan = FaultPlan.io_only(0.3)
        assert plan.any_io_faults and not plan.any_query_faults

    def test_empty_plan_is_quiet(self):
        plan = FaultPlan()
        assert not plan.any_io_faults and not plan.any_query_faults


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan.io_only(0.5)
        a, b = FaultInjector(plan, seed=3), FaultInjector(plan, seed=3)
        seq_a = [a.page_io_action("f", i % 4, write=False).kind for i in range(40)]
        seq_b = [b.page_io_action("f", i % 4, write=False).kind for i in range(40)]
        assert seq_a == seq_b
        assert "fail" in seq_a  # the schedule actually injects at this rate

    def test_different_seeds_differ(self):
        plan = FaultPlan.io_only(0.5)
        a, b = FaultInjector(plan, seed=1), FaultInjector(plan, seed=2)
        seq_a = [a.page_io_action("f", 0, write=False).kind for _ in range(40)]
        seq_b = [b.page_io_action("f", 0, write=False).kind for _ in range(40)]
        assert seq_a != seq_b

    def test_max_consecutive_caps_failure_streaks(self):
        plan = FaultPlan(read_error_rate=1.0, max_consecutive=2)
        injector = FaultInjector(plan, seed=0)
        kinds = [injector.page_io_action("f", 0, write=False).kind for _ in range(9)]
        # rate 1.0 would fail forever; the cap forces success every third.
        assert kinds == ["fail", "fail", "ok"] * 3

    def test_torn_only_on_appends(self):
        plan = FaultPlan(torn_append_rate=1.0, max_consecutive=1)
        injector = FaultInjector(plan, seed=0)
        assert injector.page_io_action("f", 3, write=True, appending=True).kind == "torn"
        assert injector.page_io_action("f", 0, write=True).kind == "ok"

    def test_stats_count_by_kind(self):
        plan = FaultPlan(read_error_rate=1.0, max_consecutive=1)
        injector = FaultInjector(plan, seed=0)
        injector.page_io_action("f", 0, write=False)
        injector.page_io_action("f", 1, write=False)
        s = injector.stats()
        assert s.read_errors == 2 and s.total == 2 and s.write_errors == 0

    def test_reset_restores_the_original_schedule(self):
        plan = FaultPlan.io_only(0.5)
        injector = FaultInjector(plan, seed=9)
        first = [injector.page_io_action("f", 0, write=False).kind for _ in range(10)]
        injector.reset()
        again = [injector.page_io_action("f", 0, write=False).kind for _ in range(10)]
        assert first == again
        assert injector.stats().total == first.count("fail")

    def test_pickle_roundtrip_rebuilds_fresh(self):
        plan = FaultPlan.storm(0.4)
        injector = FaultInjector(plan, seed=11)
        [injector.page_io_action("f", 0, write=False) for _ in range(10)]
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.plan == plan and clone.seed == 11
        assert clone.stats().total == 0  # fresh counters on the other side
        fresh = FaultInjector(plan, seed=11)
        assert [clone.page_io_action("f", 0, write=False).kind for _ in range(10)] == [
            fresh.page_io_action("f", 0, write=False).kind for _ in range(10)
        ]

    def test_query_faults_raise_worker_crash(self):
        plan = FaultPlan(crash_rate=1.0, max_consecutive=1)
        injector = FaultInjector(plan, seed=0)
        with pytest.raises(WorkerCrashError) as info:
            injector.query_fault((1, 2))
        assert info.value.query == (1, 2)
        injector.query_fault((1, 2))  # capped: second consult must pass


class TestRetryPolicy:
    def test_delays_grow_geometrically_and_cap(self):
        policy = RetryPolicy(
            base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03, jitter=0.0
        )
        assert policy.delay_for(1) == pytest.approx(0.01)
        assert policy.delay_for(2) == pytest.approx(0.02)
        assert policy.delay_for(3) == pytest.approx(0.03)  # capped
        assert policy.delay_for(9) == pytest.approx(0.03)

    def test_backoff_sleeps_then_exhausts(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, jitter=0.0, sleep=slept.append
        )
        boom = TransientIOError("x", op="read", file="f", page_id=0)
        policy.backoff(1, boom)
        policy.backoff(2, boom)
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]
        with pytest.raises(RetryExhaustedError) as info:
            policy.backoff(3, boom)
        assert info.value.attempts == 3 and info.value.last_error is boom

    def test_no_retry_fails_immediately(self):
        with pytest.raises(RetryExhaustedError):
            NO_RETRY.backoff(1, TransientIOError("x", op="read", file="f", page_id=0))

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)


class TestRetryJitter:
    """The thundering-herd fix: delays decorrelate deterministically."""

    def test_fixed_salt_is_deterministic(self):
        a = RetryPolicy(base_delay_s=0.01, max_delay_s=0.08, jitter_salt=7)
        b = RetryPolicy(base_delay_s=0.01, max_delay_s=0.08, jitter_salt=7)
        assert [a.delay_for(n) for n in range(1, 6)] == [
            b.delay_for(n) for n in range(1, 6)
        ]

    def test_different_salts_decorrelate(self):
        delays = {
            salt: tuple(
                RetryPolicy(
                    base_delay_s=0.01, max_delay_s=0.08, jitter_salt=salt
                ).delay_for(n)
                for n in range(1, 5)
            )
            for salt in range(8)
        }
        # Workers with distinct salts must not back off in lockstep.
        assert len(set(delays.values())) == len(delays)

    def test_jitter_respects_existing_bounds(self):
        policy = RetryPolicy(
            base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03, jitter_salt=3
        )
        plain = RetryPolicy(
            base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03, jitter=0.0
        )
        for attempt in range(1, 10):
            d = policy.delay_for(attempt)
            full = plain.delay_for(attempt)
            assert 0.0 <= d <= full <= policy.max_delay_s
            assert d >= full * (1.0 - policy.jitter)

    def test_default_salt_is_per_process(self):
        import os

        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.08)
        pinned = RetryPolicy(
            base_delay_s=0.01, max_delay_s=0.08, jitter_salt=os.getpid()
        )
        assert policy.delay_for(2) == pytest.approx(pinned.delay_for(2))

    def test_executor_ships_jitter_to_workers(self):
        from repro.data.examples import running_example
        from repro.engine import ReverseSkylineEngine
        from repro.exec.dispatch import _retry_args
        from repro.exec.executor import QueryExecutor

        engine = ReverseSkylineEngine(running_example())
        ex = QueryExecutor(
            engine,
            retry_policy=RetryPolicy(jitter=0.25, jitter_salt=None),
        )
        args = _retry_args(ex.retry_policy)
        assert args["jitter"] == 0.25
        # None stays None so each worker jitters from its own pid.
        assert args["jitter_salt"] is None
        assert RetryPolicy(**args).jitter == 0.25


def make_disk(plan=None, seed=0, attempts=4, **kwargs):
    injector = FaultInjector(plan, seed=seed) if plan is not None else None
    disk = DiskSimulator(
        64, fault_injector=injector, retry_policy=fast_policy(attempts), **kwargs
    )
    codec = RecordCodec(Schema.categorical([5] * 3))  # 16B -> 4 rec/page
    return disk, disk.create_file("f", codec)


def fill(pf, n):
    with pf.writer() as w:
        for i in range(n):
            w.append(i, (i % 5, 0, 0))


class TestStorageRecovery:
    def test_reads_recover_and_logical_io_is_unchanged(self):
        clean_disk, clean_pf = make_disk()
        fill(clean_pf, 12)
        clean_disk.stats.reset()
        for page in (0, 1, 2, 0):
            clean_pf.read_page(page)

        disk, pf = make_disk(FaultPlan(read_error_rate=0.6, max_consecutive=2))
        fill(pf, 12)
        disk.stats.reset()
        pages = [pf.read_page(page) for page in (0, 1, 2, 0)]
        assert [rid for page in pages for rid, _ in page] == [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3,
        ]
        # Identical logical cost; the faults show up only in retry counters.
        assert disk.stats.sequential_reads == clean_disk.stats.sequential_reads
        assert disk.stats.random_reads == clean_disk.stats.random_reads
        assert disk.stats.read_retries > 0
        assert disk.stats.faults_seen == disk.stats.read_retries

    def test_writes_recover(self):
        disk, pf = make_disk(FaultPlan(write_error_rate=0.7, max_consecutive=2))
        fill(pf, 8)
        pf.write_page(1, [(99, (1, 1, 1))])
        assert pf.read_page(1) == [(99, (1, 1, 1))]
        assert pf.num_records == 5
        assert disk.stats.write_retries > 0

    def test_torn_append_is_repaired_by_retry(self):
        disk, pf = make_disk(FaultPlan(torn_append_rate=0.8, max_consecutive=2))
        fill(pf, 20)
        assert disk.stats.faults_seen > 0  # the storm actually tore appends
        assert pf.num_records == 20
        assert [rid for rid, _ in pf.peek_all_records()] == list(range(20))

    def test_latency_spikes_keep_answers_intact(self):
        stalls = []
        plan = FaultPlan(latency_rate=1.0, latency_s=0.001, max_consecutive=1)
        injector = FaultInjector(plan, seed=0)
        disk = DiskSimulator(
            64,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2, sleep=stalls.append),
        )
        pf = disk.create_file("f", RecordCodec(Schema.categorical([5] * 3)))
        fill(pf, 4)
        pf.read_page(0)
        assert stalls  # spikes routed through the policy's sleep hook
        assert injector.stats().latency_spikes > 0
        assert disk.stats.read_retries == 0  # latency is not a failure

    def test_exhaustion_raises_structured_error_with_site(self):
        disk, pf = make_disk(
            FaultPlan(read_error_rate=1.0, max_consecutive=10), attempts=3
        )
        fill(pf, 4)
        with pytest.raises(RetryExhaustedError) as info:
            pf.read_page(0)
        assert info.value.attempts == 3
        inner = info.value.last_error
        assert isinstance(inner, TransientIOError)
        assert inner.file == "f" and inner.page_id == 0 and inner.op == "read"

    def test_real_file_backing_recovers_identically(self, tmp_path):
        plan = FaultPlan.io_only(0.5)
        mem_disk, mem_pf = make_disk(plan, seed=5)
        fill(mem_pf, 16)
        real_disk, real_pf = make_disk(plan, seed=5, backing_dir=tmp_path / "pages")
        fill(real_pf, 16)
        assert real_pf.peek_all_records() == mem_pf.peek_all_records()
        assert real_disk.stats.sequential_writes == mem_disk.stats.sequential_writes

    def test_fault_free_disk_counts_no_retries(self):
        disk, pf = make_disk()
        fill(pf, 8)
        pf.read_page(0)
        assert disk.stats.retries == 0 and disk.stats.faults_seen == 0


class TestErrorTypes:
    def test_transient_io_error_context(self):
        exc = TransientIOError("boom", op="write", file="data", page_id=7)
        assert isinstance(exc, TransientError)
        assert isinstance(exc, StorageError)  # catchable by storage callers
        assert (exc.op, exc.file, exc.page_id) == ("write", "data", 7)

    def test_worker_crash_is_transient(self):
        exc = WorkerCrashError("boom", query=(1, 2), reason="timeout")
        assert isinstance(exc, TransientError)
        assert exc.query == (1, 2) and exc.reason == "timeout"

    def test_retry_exhausted_is_terminal_not_transient(self):
        inner = TransientIOError("x", op="read", file="f", page_id=0)
        exc = RetryExhaustedError("gave up", attempts=4, last_error=inner)
        assert not isinstance(exc, TransientError)
        assert exc.attempts == 4 and exc.last_error is inner
