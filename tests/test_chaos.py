"""Chaos-equivalence: batches under injected faults still return the
fault-free answers (or structured per-query errors), on every pool kind.

The full ≥50-trial-per-pool run is the CI ``faults`` job
(``verify_chaos_equivalence(trials=50, ...)``); here each pool gets a
smaller smoke-sized slice so the suite stays fast, plus direct tests of
the degraded paths (exhaustion, crash-only storms, bad specs).
"""

import os

import pytest

from repro.data.queries import query_batch
from repro.data.synthetic import synthetic_dataset
from repro.engine import ReverseSkylineEngine
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.testing import verify_chaos_equivalence


def no_sleep(_):
    pass


FAST_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.0, sleep=no_sleep)


@pytest.fixture(scope="module")
def ds():
    return synthetic_dataset(200, [6, 5, 4], seed=31)


def chaos_engine(ds, plan, seed=0, policy=FAST_POLICY):
    return ReverseSkylineEngine(
        ds,
        memory_fraction=0.2,
        page_bytes=128,
        log_queries=False,
        fault_injector=FaultInjector(plan, seed=seed),
        retry_policy=policy,
    )


class TestChaosHarness:
    @pytest.mark.smoke
    def test_serial_pool_equivalence(self):
        report = verify_chaos_equivalence(trials=8, seed=100, pools=("serial",))
        assert report.ok, str(report.failures[0])
        assert report.runs == 8
        assert report.faults_injected > 0  # the storm actually stormed
        assert report.exhausted_queries == 0  # serial recovery is guaranteed

    @pytest.mark.smoke
    def test_thread_pool_equivalence(self):
        report = verify_chaos_equivalence(trials=8, seed=200, pools=("thread",))
        assert report.ok, str(report.failures[0])
        assert report.runs == 8

    @pytest.mark.smoke
    def test_process_pool_equivalence(self):
        report = verify_chaos_equivalence(trials=3, seed=300, pools=("process",))
        if report.skipped_pools:  # sandboxed CI: no process primitives
            pytest.skip(report.skipped_pools[0])
        assert report.ok, str(report.failures[0])
        assert report.runs == 3

    def test_harness_validates_inputs(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            verify_chaos_equivalence(trials=0)
        with pytest.raises(ExperimentError):
            verify_chaos_equivalence(batch_size=1)


class TestDegradedPaths:
    def test_exhausted_query_becomes_structured_error(self, ds):
        # Streaks longer than the retry budget force the exhausted path.
        plan = FaultPlan(read_error_rate=1.0, max_consecutive=10)
        engine = chaos_engine(
            ds, plan, policy=RetryPolicy(max_attempts=2, sleep=no_sleep)
        )
        queries = [(1, 2, 3), (0, 0, 0)]
        report = engine.query_many(queries, pool="serial", cache=False)
        assert not report.ok and report.failed == 2
        for i, error in report.failures():
            assert error.error_type == "RetryExhaustedError"
            assert error.query == queries[i]
            assert error.file is not None and error.page_id is not None
            assert "page" in error.describe()

    def test_one_bad_query_never_aborts_the_batch(self, ds):
        # Crash-only storm with an uncapped streak: some queries die, the
        # batch and the healthy queries survive.
        plan = FaultPlan(crash_rate=1.0, max_consecutive=10)
        engine = chaos_engine(
            ds, plan, policy=RetryPolicy(max_attempts=2, sleep=no_sleep)
        )
        report = engine.query_many([(1, 2, 3)], pool="serial", cache=False)
        assert report.failed == 1 and len(report) == 1
        assert report.results[0] is None
        assert report.errors[0].error_type == "RetryExhaustedError"
        assert "crash" in report.errors[0].message

    def test_crash_recovery_reproduces_fault_free_answers(self, ds):
        plan = FaultPlan(crash_rate=0.6, timeout_rate=0.3)  # max_consecutive=2
        clean = ReverseSkylineEngine(ds, page_bytes=128, log_queries=False)
        queries = [(1, 2, 3), (5, 4, 3), (0, 0, 0)]
        expected = [tuple(clean.query(q).record_ids) for q in queries]
        engine = chaos_engine(ds, plan, seed=4)
        report = engine.query_many(queries, pool="thread", workers=2, cache=False)
        assert report.ok
        assert [tuple(r.record_ids) for r in report.results] == expected
        assert engine.fault_injector.stats().crashes > 0

    def test_bad_spec_fails_per_query_not_per_batch(self, ds):
        from repro.exec import QuerySpec

        engine = ReverseSkylineEngine(ds, page_bytes=128, log_queries=False)
        good = QuerySpec((1, 2, 3))
        bad = QuerySpec((1,), kind="subset", attributes=("NOPE",))
        report = engine.query_many([good, bad, good], pool="serial")
        assert report.failed == 1
        assert report.errors[1].error_type == "SchemaError"
        assert report.results[0] is not None and report.results[2] is not None

    def test_failed_queries_are_logged_with_error(self, ds):
        plan = FaultPlan(read_error_rate=1.0, max_consecutive=10)
        engine = ReverseSkylineEngine(
            ds,
            page_bytes=128,
            fault_injector=FaultInjector(plan, seed=0),
            retry_policy=RetryPolicy(max_attempts=2, sleep=no_sleep),
        )
        report = engine.query_many([(1, 2, 3)], pool="serial", cache=False)
        assert report.failed == 1
        entry = engine.log[-1]
        assert entry.error is not None and "RetryExhaustedError" in entry.error
        assert entry.checks == 0 and entry.cached is False

    def test_failed_answers_are_never_cached(self, ds):
        plan = FaultPlan(read_error_rate=1.0, max_consecutive=10)
        injector = FaultInjector(plan, seed=0)
        engine = ReverseSkylineEngine(
            ds,
            page_bytes=128,
            log_queries=False,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2, sleep=no_sleep),
        )
        first = engine.query_many([(1, 2, 3)], pool="serial")
        assert first.failed == 1
        assert len(engine.result_cache()) == 0  # no poisoned entry
        second = engine.query_many([(1, 2, 3)], pool="serial")
        assert second.failed == 1 and second.cache_hits == 0


class TestDeadWorkers:
    """A process worker that really dies (``os._exit``) costs a pool
    rebuild in ``query_many``, never the batch."""

    @staticmethod
    def _die_when(monkeypatch, should_die):
        """Make forked pool workers exit hard on the specs ``should_die``
        picks; the parent process keeps answering normally."""
        parent = os.getpid()
        real = ReverseSkylineEngine._timed_execute

        def timed_execute(self, spec):
            if os.getpid() != parent and should_die(spec):
                os._exit(1)
            return real(self, spec)

        monkeypatch.setattr(ReverseSkylineEngine, "_timed_execute", timed_execute)

    @staticmethod
    def _expected(ds, queries):
        clean = ReverseSkylineEngine(ds, page_bytes=128, log_queries=False)
        return [tuple(clean.query(q).record_ids) for q in queries]

    def test_worker_killed_once_is_rebuilt_and_the_batch_completes(
        self, ds, tmp_path, monkeypatch
    ):
        marker = tmp_path / "died"

        def first_job_anywhere(spec):
            try:  # O_EXCL: exactly one job, in one worker, ever dies
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return False
            return True

        self._die_when(monkeypatch, first_job_anywhere)
        queries = query_batch(ds, 12, seed=8)
        expected = self._expected(ds, queries)
        engine = ReverseSkylineEngine(ds, page_bytes=128, log_queries=False)
        report = engine.query_many(queries, pool="process", workers=2, cache=False)
        assert marker.exists()  # a worker really died mid-batch
        assert report.ok
        assert [tuple(r.record_ids) for r in report.results] == expected

    def test_spec_that_always_kills_its_worker_becomes_a_query_error(
        self, ds, monkeypatch
    ):
        queries = query_batch(ds, 12, seed=9)
        killer = queries[5]
        self._die_when(monkeypatch, lambda spec: spec.query == killer)
        expected = self._expected(ds, queries)
        engine = ReverseSkylineEngine(ds, page_bytes=128, log_queries=False)
        report = engine.query_many(queries, pool="process", workers=2, cache=False)
        assert report.results[5] is None
        for i, (want, result) in enumerate(zip(expected, report.results)):
            if result is not None:
                assert tuple(result.record_ids) == want
                continue
            error = report.errors[i]
            assert error is not None and error.error_type == "BrokenProcessPool"
            assert error.attempts == 2
