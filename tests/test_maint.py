"""Incremental maintenance: delta trees, compaction, epoch caching and
the equivalence harness."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.synthetic import synthetic_dataset
from repro.engine import ReverseSkylineEngine
from repro.errors import AlgorithmError
from repro.kernels.plancache import configure, plan_cache
from repro.maint import MaintainedEngine, MaintStore
from repro.testing import verify_maint_equivalence


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Isolate the process-wide plan cache between tests."""
    configure(256 * 1024 * 1024)
    yield
    configure(256 * 1024 * 1024)


@pytest.fixture
def ds():
    return synthetic_dataset(120, [6, 5, 7], seed=123)


def _rand_records(dataset, n, rng):
    cards = dataset.schema.cardinalities()
    return [tuple(rng.randrange(c) for c in cards) for _ in range(n)]


def _oracle_ids(store, query):
    live = store.live_entries()
    if not live:
        return ()
    oracle = ReverseSkylineEngine(
        Dataset(
            store.base.schema,
            [v for _, v in live],
            store.base.space,
            validate=False,
            name="oracle",
        ),
        log_queries=False,
    )
    sids = [sid for sid, _ in live]
    return tuple(sorted(sids[p] for p in oracle.query(query).record_ids))


class TestMaintStore:
    def test_stable_ids_are_monotone_and_survive_compaction(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        r1 = store.apply(inserts=[ds.records[0], ds.records[1]], deletes=[5])
        assert r1.inserted == (120, 121)
        assert r1.deleted == (5,)
        store.compact()
        # The compacted base keeps every live stable id; 5 is gone.
        assert 5 not in store.base_ids
        assert 120 in store.base_ids and 121 in store.base_ids
        r2 = store.apply(inserts=[ds.records[2]])
        assert r2.inserted == (122,)

    def test_bad_delete_batch_is_a_no_op(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        with pytest.raises(AlgorithmError):
            store.apply(inserts=[ds.records[0]], deletes=[9999])
        with pytest.raises(AlgorithmError):
            store.apply(deletes=[3, 3])
        assert store.epoch == 0
        assert store.delta_records == 0
        assert store.tombstone_count == 0

    def test_delete_of_uncompacted_insert_counts_as_churn(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        (sid,) = store.apply(inserts=[ds.records[0]]).inserted
        store.apply(deletes=[sid])
        assert store.delta_records == 0
        assert store.tombstone_count == 0  # never reached the base
        assert store._churn() == 1  # but the work is remembered

    def test_size_tiered_merge_keeps_tier_count_logarithmic(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        rng = random.Random(5)
        for _ in range(30):
            store.apply(inserts=_rand_records(ds, 2, rng))
        stats = store.stats()
        assert stats["delta_records"] == 60
        assert stats["delta_tiers"] <= 8
        assert stats["tier_merges"] > 0

    def test_compaction_threshold_triggers_automatically(self, ds):
        store = MaintStore(ds, compact_min=8, compact_fraction=0.0)
        rng = random.Random(6)
        res = store.apply(inserts=_rand_records(ds, 9, rng))
        assert res.compacted
        assert store.compactions == 1
        assert store.delta_records == 0
        assert len(store.base) == 129

    def test_crash_mid_compaction_leaves_store_untouched(self, ds):
        store = MaintStore(ds, compact_min=10_000)
        rng = random.Random(7)
        store.apply(inserts=_rand_records(ds, 5, rng), deletes=[1, 2])
        before = (store.epoch, store.base, store.base_ids,
                  store.delta_records, store.tombstone_count)

        def _boom():
            raise RuntimeError("crash")

        store._crash_hook = _boom
        with pytest.raises(RuntimeError):
            store.compact()
        store._crash_hook = None
        after = (store.epoch, store.base, store.base_ids,
                 store.delta_records, store.tombstone_count)
        assert before == after
        assert store.compact()  # clean retry succeeds
        assert store.delta_records == 0

    def test_wire_state_roundtrip(self, ds):
        parent = MaintStore(ds, compact_min=10_000)
        rng = random.Random(8)
        parent.apply(inserts=_rand_records(ds, 4, rng), deletes=[0, 7])
        worker = MaintStore(ds, compact_min=10_000)
        assert worker.install_wire_state(parent.wire_state())
        assert worker.live_entries() == parent.live_entries()
        # Idempotent: same epoch again is ignored.
        assert not worker.install_wire_state(parent.wire_state())

    def test_wire_state_carries_base_ids_after_compaction(self, ds):
        parent = MaintStore(ds, compact_min=10_000)
        rng = random.Random(9)
        parent.apply(inserts=_rand_records(ds, 3, rng), deletes=[2])
        parent.compact()
        parent.apply(inserts=_rand_records(ds, 2, rng))
        blob = parent.wire_state()
        assert blob["base_ids"] == parent.base_ids  # non-identity now
        worker = MaintStore(parent.base, compact_min=10_000)
        assert worker.install_wire_state(blob)
        assert worker.live_entries() == parent.live_entries()

    def test_wire_state_rejects_out_of_sync_base(self, ds):
        parent = MaintStore(ds, compact_min=10_000)
        parent.apply(deletes=[90])  # beyond the shrunken worker base below
        other = synthetic_dataset(40, [6, 5, 7], seed=9)
        worker = MaintStore(other, compact_min=10_000)
        with pytest.raises(AlgorithmError):
            worker.install_wire_state(parent.wire_state())


class TestMaintainedEngine:
    def test_answers_match_rebuild_oracle_through_churn(self, ds):
        rng = random.Random(11)
        engine = MaintainedEngine(
            ds, backend="numpy", compact_min=15, compact_fraction=0.0,
            log_queries=False,
        )
        queries = _rand_records(ds, 4, rng)
        for _ in range(6):
            live = [sid for sid, _ in engine.store.live_entries()]
            engine.apply_updates(
                inserts=_rand_records(ds, rng.randrange(0, 5), rng),
                deletes=rng.sample(live, rng.randrange(0, 3)),
            )
            for q in queries:
                assert tuple(engine.query(q).record_ids) == _oracle_ids(
                    engine.store, q
                )
        assert engine.store.compactions >= 1  # churn tripped at least one

    def test_updates_leave_plan_cache_entries_warm(self, ds):
        engine = MaintainedEngine(
            ds, backend="numpy", compact_min=10_000, log_queries=False
        )
        rng = random.Random(12)
        q = _rand_records(ds, 1, rng)[0]
        engine.query(q)
        entries = plan_cache().stats().entries
        assert entries > 0
        misses_before = plan_cache().stats().misses
        for _ in range(3):
            engine.apply_updates(inserts=_rand_records(ds, 2, rng))
            engine.query(q)
        stats = plan_cache().stats()
        # Surgical invalidation: update epochs drop nothing and never
        # rebuild — epoch instances are clones of epoch 0's, sharing its
        # plan outright (stronger than a cache hit, which would at least
        # re-fingerprint the layout).
        assert stats.entries == entries
        assert stats.misses == misses_before
        assert engine.plans_invalidated_total == 0
        # Acceptance floor: >= 50% of entries retained across a batch.
        assert stats.entries >= entries * 0.5

    def test_compaction_drops_only_this_bases_plans(self, ds):
        other = synthetic_dataset(80, [5, 4, 6], seed=55)
        bystander = ReverseSkylineEngine(
            other, backend="numpy", log_queries=False
        )
        rng = random.Random(13)
        bystander.query(tuple(rng.randrange(c) for c in other.schema.cardinalities()))
        bystander_entries = plan_cache().stats().entries
        assert bystander_entries > 0
        engine = MaintainedEngine(
            ds, backend="numpy", compact_min=10_000, log_queries=False
        )
        q = _rand_records(ds, 1, rng)[0]
        engine.query(q)
        engine.apply_updates(inserts=_rand_records(ds, 3, rng))
        engine.compact()
        assert engine.plans_invalidated_total > 0
        # The bystander dataset's plans survived the compaction.
        assert plan_cache().stats().entries >= bystander_entries

    def test_result_cache_never_crosses_epochs(self, ds):
        engine = MaintainedEngine(ds, compact_min=10_000, log_queries=False)
        fp0 = engine.layout_fingerprint()
        engine.apply_updates(inserts=[ds.records[0]])
        assert engine.layout_fingerprint() != fp0
        assert engine.layout_fingerprint().endswith("#e1")

    def test_where_filter_sees_stable_id_values(self, ds):
        engine = MaintainedEngine(ds, compact_min=10_000, log_queries=False)
        rng = random.Random(14)
        q = _rand_records(ds, 1, rng)[0]
        full = engine.query(q)
        none = engine.query(q, where=lambda values: False)
        assert none.record_ids == ()
        sub = engine.query(q, where=lambda values: values[0] == 0)
        assert set(sub.record_ids) <= set(full.record_ids)

    def test_unsupported_surfaces_raise(self, ds):
        engine = MaintainedEngine(ds, log_queries=False)
        with pytest.raises(AlgorithmError):
            engine.skyband((0, 0, 0), 2)
        with pytest.raises(AlgorithmError):
            engine.query_subset([0], (0,))
        with pytest.raises(AlgorithmError):
            engine.influence({"p": (0, 0, 0)})


class TestHarness:
    def test_verify_maint_equivalence_storm(self):
        report = verify_maint_equivalence(
            trials=4, seed=0, pools=("serial", "thread")
        )
        assert report.ok, str(report.failures[0])
        assert report.batches > 0
        assert report.compactions > 0
        assert report.crash_recoveries > 0

    def test_harness_validates_arguments(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            verify_maint_equivalence(trials=0)
        with pytest.raises(ExperimentError):
            verify_maint_equivalence(pools=("fiber",))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=6
    ),
    compact_min=st.integers(min_value=3, max_value=40),
)
def test_property_random_interleavings_match_rebuild(seed, ops, compact_min):
    """Any interleaving of inserts/deletes/compactions answers
    bit-identically to a from-scratch rebuild over the live records."""
    rng = random.Random(seed)
    base = synthetic_dataset(30 + seed % 20, [4, 3, 5], seed=seed % 7)
    engine = MaintainedEngine(
        base, compact_min=compact_min, compact_fraction=0.0, log_queries=False
    )
    cards = base.schema.cardinalities()
    query = tuple(rng.randrange(c) for c in cards)
    for n_ins, n_del in ops:
        live = [sid for sid, _ in engine.store.live_entries()]
        engine.apply_updates(
            inserts=[
                tuple(rng.randrange(c) for c in cards) for _ in range(n_ins)
            ],
            deletes=rng.sample(live, min(n_del, len(live))),
        )
        assert tuple(engine.query(query).record_ids) == _oracle_ids(
            engine.store, query
        )
    engine.compact()
    assert tuple(engine.query(query).record_ids) == _oracle_ids(
        engine.store, query
    )
