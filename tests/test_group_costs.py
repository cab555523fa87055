"""Per-call fixed costs of the shared-scan group path, and the CPU-time
measurements the resident service's micro-batcher decides by.

A shared-scan instance pays its layout fingerprint, dissimilarity
matrices and staged data pages once per layout, never per group; the
planner's instance adopts the layout its engine already sorted; and
every outcome carries the thread CPU time of its engine call.
"""

import pytest

from repro.core import multiquery
from repro.core.multiquery import SharedScanTRS
from repro.core.trs import TRS
from repro.data.queries import query_batch
from repro.data.synthetic import synthetic_dataset
from repro.engine import ReverseSkylineEngine
from repro.exec.dispatch import _run_group, _run_with_recovery, _shared_scan_for
from repro.exec.executor import QuerySpec
from repro.faults.retry import RetryPolicy

_IO = ("sequential_reads", "random_reads", "sequential_writes", "random_writes")


@pytest.fixture(scope="module")
def ds():
    return synthetic_dataset(600, [7, 6, 5], seed=121)


@pytest.fixture(scope="module")
def queries(ds):
    return query_batch(ds, 4, seed=3)


def _signature(out):
    """Everything a group run must reproduce bit for bit."""
    s = out.stats
    return (
        out.results,
        out.per_query_checks,
        out.per_query_checks_phase1,
        out.per_query_checks_phase2,
        s.checks_phase1,
        s.checks_phase2,
        s.pruner_tests,
        s.db_passes,
        s.phase1_batches,
        s.phase2_batches,
        s.intermediate_count,
        s.phase1_pruned,
        tuple(getattr(s.io, name) for name in _IO),
    )


def _counting_fingerprint(monkeypatch):
    calls = []
    real = multiquery.plan_fingerprint

    def counted(dataset, layout):
        calls.append(layout)
        return real(dataset, layout)

    monkeypatch.setattr(multiquery, "plan_fingerprint", counted)
    return calls


class TestSharedScanMemos:
    def test_fingerprint_is_computed_once_per_layout(self, ds, queries, monkeypatch):
        calls = _counting_fingerprint(monkeypatch)
        shared = SharedScanTRS(ds, page_bytes=128, backend="numpy")
        for i in range(3):
            shared.run_batch(queries[i:] + queries[:i])
        assert len(calls) == 1
        # A new layout (even with the same order) is fingerprinted anew.
        shared.use_layout(list(shared._trs.layout))
        shared.run_batch(queries)
        shared.run_batch(queries[:2])
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "backend, fused", [("python", True), ("numpy", True), ("numpy", False)]
    )
    def test_repeat_groups_match_a_fresh_instance(self, ds, queries, backend, fused):
        shared = SharedScanTRS(ds, page_bytes=128, backend=backend, fused=fused)
        shared.run_batch(queries[:2])
        shared.run_batch(queries[1:])
        repeat = shared.run_batch(queries)
        fresh = SharedScanTRS(ds, page_bytes=128, backend=backend, fused=fused)
        assert _signature(repeat) == _signature(fresh.run_batch(queries))

    def test_staged_pages_are_reused(self, ds, queries):
        shared = SharedScanTRS(ds, page_bytes=128, backend="numpy")
        shared.run_batch(queries[:1])
        staged = shared._trs._staged_pages
        assert staged is not None
        shared.run_batch(queries)
        assert shared._trs._staged_pages is staged


class TestPlannerInstance:
    def test_shared_scan_adopts_the_engines_layout(self, ds, queries, monkeypatch):
        engine = ReverseSkylineEngine(ds, backend="numpy", page_bytes=128)
        engine.warm()
        sorts = []
        real = TRS._build_layout

        def counted(self):
            sorts.append(self)
            return real(self)

        monkeypatch.setattr(TRS, "_build_layout", counted)
        shared = _shared_scan_for(engine, "numpy")
        assert sorts == []
        assert shared._trs.layout == engine._algorithm("TRS").layout
        out = shared.run_batch(queries)
        for q, ids in zip(out.queries, out.results):
            assert ids == engine.query(q).record_ids


class TestOutcomeCpuTime:
    def test_single_and_group_outcomes_carry_thread_cpu_time(self, ds, queries):
        engine = ReverseSkylineEngine(ds, backend="numpy", page_bytes=128)
        specs = [QuerySpec(query=q) for q in queries]
        single = _run_with_recovery(engine, specs[0], None, RetryPolicy())
        assert single.error is None
        assert single.cpu_s > 0.0
        group = _run_group(engine, specs, "numpy", None, RetryPolicy())
        assert [o.result.algorithm for o in group] == ["SharedScanTRS"] * 4
        # Like the wall time, the shared scan's CPU time sits on the
        # first member, so the members sum to the group.
        assert group[0].cpu_s > 0.0
        assert [o.cpu_s for o in group[1:]] == [0.0, 0.0, 0.0]
