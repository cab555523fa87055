"""Kernels layer: backend dispatch plus the VectorTRS ≡ TRS contract.

The numpy backend promises **bit-identical** results, batch structure and
page-IO counts to scalar TRS — only the ``checks_*`` counters may differ
(array kernels test pruners at frontier granularity; docs/performance.md
documents the accounting contract). These tests enforce the contract
differentially on randomized workloads, including non-metric matrices,
duplicates, tiny budgets and mixed schemas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altree.tree import ALTree
from repro.core.multiquery import SharedScanTRS
from repro.core.registry import make_algorithm
from repro.core.trs import TRS, is_prunable
from repro.core.vector_trs import VectorTRS
from repro.core.vectorized import VectorBRS
from repro.data.dataset import Dataset
from repro.data.queries import query_batch
from repro.data.schema import Schema
from repro.data.synthetic import mixed_dataset, synthetic_dataset
from repro.dissim.generators import nonmetric_dissimilarity, random_dissimilarity
from repro.dissim.space import DissimilaritySpace
from repro.errors import AlgorithmError
from repro.kernels import (
    ColumnarALTree,
    available_backends,
    batch_is_prunable,
    candidate_paths,
    normalize_backend,
    resolve_algorithm,
    scalar_variant,
    vector_variant,
)
from repro.kernels.frontier import leaf_min_tables
from repro.skyline.oracle import reverse_skyline_by_pruners
from repro.storage.disk import MemoryBudget
from repro.testing.verify import random_workload, verify_algorithm

# The bit-identical contract: everything an RSResult reports except the
# checks_* counters (which measure backend-specific work granularity).
_CONTRACT_STATS = (
    "db_passes",
    "phase1_batches",
    "phase2_batches",
    "intermediate_count",
    "phase1_pruned",
    "pruner_tests",
    "result_count",
)
_CONTRACT_IO = (
    "sequential_reads",
    "random_reads",
    "sequential_writes",
    "random_writes",
)


def assert_contract_equal(vec, ref, label=""):
    """Assert the numpy result is bit-identical to the scalar one on every
    contract field."""
    assert vec.record_ids == ref.record_ids, label
    for f in _CONTRACT_STATS:
        assert getattr(vec.stats, f) == getattr(ref.stats, f), f"{label}: {f}"
    for f in _CONTRACT_IO:
        assert getattr(vec.stats.io, f) == getattr(ref.stats.io, f), f"{label}: {f}"


# --- differential: VectorTRS vs TRS ------------------------------------------


class TestVectorTRSDifferential:
    def test_randomized_trials_bit_identical(self):
        """50+ random workloads (non-metric matrices, duplicates, random
        budgets/page sizes): the full contract holds on every one."""
        for t in range(55):
            case = random_workload(9000 + t)
            budget = MemoryBudget(case.budget_pages)
            ref = TRS(case.dataset, budget=budget, page_bytes=case.page_bytes)
            vec = VectorTRS(case.dataset, budget=budget, page_bytes=case.page_bytes)
            assert_contract_equal(
                vec.run(case.query), ref.run(case.query), case.describe()
            )

    def test_matches_oracle(self):
        report = verify_algorithm(
            lambda ds, budget, page: VectorTRS(ds, budget=budget, page_bytes=page),
            trials=30,
            seed=9200,
        )
        assert report.ok, str(report.failures[0])

    def test_warm_cache_replay_identical(self):
        """The phase-1 batch cache is query-independent: a warm instance
        answers later queries bit-identically to a cold scalar run."""
        ds = synthetic_dataset(600, [7, 6, 5], seed=310)
        vec = VectorTRS(ds, budget=MemoryBudget(3), page_bytes=256)
        for q in query_batch(ds, 5, seed=11):
            ref = TRS(ds, budget=MemoryBudget(3), page_bytes=256)
            assert_contract_equal(vec.run(q), ref.run(q), f"warm q={q}")

    @pytest.mark.smoke
    def test_small_parity_smoke(self):
        ds = synthetic_dataset(200, [6, 5], seed=42)
        q = query_batch(ds, 1, seed=1)[0]
        ref = TRS(ds, budget=MemoryBudget(2), page_bytes=128).run(q)
        vec = VectorTRS(ds, budget=MemoryBudget(2), page_bytes=128).run(q)
        assert_contract_equal(vec, ref)
        assert vec.backend == "numpy" and ref.backend == "python"

    def test_duplicates_and_exact_query_match(self):
        base = synthetic_dataset(1, [4, 4], seed=3)
        ds = base.with_records([base.records[0]] * 15)
        for q in (base.records[0], tuple((v + 1) % 4 for v in base.records[0])):
            ref = TRS(ds, budget=MemoryBudget(2), page_bytes=64).run(q)
            vec = VectorTRS(ds, budget=MemoryBudget(2), page_bytes=64).run(q)
            assert_contract_equal(vec, ref, f"dup q={q}")

    def test_empty_dataset(self):
        ds = synthetic_dataset(0, [4, 4], seed=1)
        assert VectorTRS(ds, budget=MemoryBudget(2)).run((0, 0)).record_ids == ()

    def test_single_attribute(self):
        ds = synthetic_dataset(150, [9], seed=8)
        q = query_batch(ds, 1, seed=2)[0]
        ref = TRS(ds, budget=MemoryBudget(2), page_bytes=64).run(q)
        vec = VectorTRS(ds, budget=MemoryBudget(2), page_bytes=64).run(q)
        assert_contract_equal(vec, ref)

    def test_rejects_numeric_schema(self):
        ds = mixed_dataset(20, [3], [(0.0, 1.0)], seed=1)
        with pytest.raises(AlgorithmError, match="categorical"):
            VectorTRS(ds, budget=MemoryBudget(2)).run((0, 0.5))


# --- hypothesis: random non-metric matrices x datasets x budgets -------------


@st.composite
def kernel_case(draw):
    m = draw(st.integers(1, 3))
    cards = [draw(st.integers(3, 6)) for _ in range(m)]
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(0, 50))
    rng = np.random.default_rng(seed)
    space = DissimilaritySpace(
        [
            nonmetric_dissimilarity(c, rng)
            if draw(st.booleans())
            else random_dissimilarity(c, rng, symmetric=draw(st.booleans()))
            for c in cards
        ]
    )
    records = [tuple(int(rng.integers(0, c)) for c in cards) for _ in range(n)]
    ds = Dataset(Schema.categorical(cards), records, space, validate=False)
    query = tuple(int(rng.integers(0, c)) for c in cards)
    budget_pages = draw(st.integers(2, 5))
    page_bytes = draw(st.sampled_from([32, 64, 256]))
    page_bytes = max(page_bytes, 4 + 4 * m)
    return ds, query, budget_pages, page_bytes


@given(kernel_case())
@settings(max_examples=30, deadline=None)
def test_property_vector_trs_equals_trs(case):
    ds, q, budget_pages, page_bytes = case
    ref = TRS(ds, budget=MemoryBudget(budget_pages), page_bytes=page_bytes)
    vec = VectorTRS(ds, budget=MemoryBudget(budget_pages), page_bytes=page_bytes)
    assert_contract_equal(vec.run(q), ref.run(q))


@given(kernel_case())
@settings(max_examples=15, deadline=None)
def test_property_vector_trs_matches_oracle(case):
    ds, q, budget_pages, page_bytes = case
    vec = VectorTRS(ds, budget=MemoryBudget(budget_pages), page_bytes=page_bytes)
    assert list(vec.run(q).record_ids) == reverse_skyline_by_pruners(ds, q)


# --- backend dispatch ---------------------------------------------------------


class TestBackendDispatch:
    @pytest.mark.smoke
    def test_resolution_table(self):
        assert resolve_algorithm("TRS", None) == "TRS"
        assert resolve_algorithm("TRS", "python") == "TRS"
        assert resolve_algorithm("TRS", "numpy") == "VectorTRS"
        assert resolve_algorithm("BRS", "numpy") == "VectorBRS"
        # Vector names map back under python, and to themselves under numpy.
        assert resolve_algorithm("VectorTRS", "python") == "TRS"
        assert resolve_algorithm("VectorTRS", "numpy") == "VectorTRS"

    def test_variant_mappings(self):
        assert vector_variant("TRS") == "VectorTRS"
        assert vector_variant("VectorBRS") == "VectorBRS"
        assert vector_variant("NaiveRS") is None
        assert scalar_variant("VectorTRS") == "TRS"
        assert scalar_variant("SRS") == "SRS"

    def test_numpy_backend_requires_variant(self):
        with pytest.raises(AlgorithmError, match="no numpy backend"):
            resolve_algorithm("NaiveRS", "numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(AlgorithmError, match="unknown backend"):
            normalize_backend("cuda")

    def test_available_backends(self):
        assert available_backends("TRS") == ("python", "numpy", "auto")
        assert available_backends("NaiveRS") == ("python", "auto")

    def test_auto_upgrades_categorical(self):
        ds = synthetic_dataset(50, [4, 4], seed=1)
        assert resolve_algorithm("TRS", "auto", ds) == "VectorTRS"
        algo = make_algorithm("TRS", ds, backend="auto", budget=MemoryBudget(2))
        assert isinstance(algo, VectorTRS)

    @pytest.mark.smoke
    def test_auto_vector_brs_shape_gate(self):
        # VectorBRS is re-admitted to `auto` dispatch behind a shape
        # gate: the code-table rewrite benches it at 1.5-3.7x of scalar
        # BRS (BENCH_core.json) on shapes whose attribute cardinalities
        # fit the phase-1 column-block width, so `auto` upgrades those —
        # and only those.
        ds = synthetic_dataset(50, [4, 4], seed=1)
        assert resolve_algorithm("BRS", "auto", ds) == "VectorBRS"
        algo = make_algorithm("BRS", ds, backend="auto", budget=MemoryBudget(2))
        assert isinstance(algo, VectorBRS)
        # Beyond the measured regime (an attribute wider than the
        # column block) `auto` conservatively stays scalar; an explicit
        # numpy request is still honoured.
        from repro.core.vectorized import _COL_BLOCK

        wide = synthetic_dataset(40, [_COL_BLOCK + 1, 4], seed=3)
        assert resolve_algorithm("BRS", "auto", wide) == "BRS"
        assert resolve_algorithm("BRS", "numpy", wide) == "VectorBRS"
        # With no dataset in hand the shape is unknown: stay scalar.
        assert resolve_algorithm("BRS", "auto", None) == "BRS"
        assert available_backends("BRS") == ("python", "numpy", "auto")

    def test_auto_falls_back_on_mixed_schema(self):
        ds = mixed_dataset(30, [4], [(0.0, 1.0)], seed=2)
        assert resolve_algorithm("TRS", "auto", ds) == "TRS"
        algo = make_algorithm("TRS", ds, backend="auto", budget=MemoryBudget(2))
        assert isinstance(algo, TRS) and not isinstance(algo, VectorTRS)

    def test_explicit_numpy_on_mixed_schema_raises_at_run(self):
        # An explicit numpy request is honoured (no silent fallback); the
        # kernel then rejects the non-matrix-backed attribute loudly.
        ds = mixed_dataset(30, [4], [(0.0, 1.0)], seed=2)
        algo = make_algorithm("TRS", ds, backend="numpy", budget=MemoryBudget(2))
        assert isinstance(algo, VectorTRS)
        with pytest.raises(AlgorithmError, match="matrix-backed"):
            algo.run((0, 0.5))

    def test_python_backend_downgrades_vector_request(self):
        ds = synthetic_dataset(50, [4, 4], seed=1)
        algo = make_algorithm("VectorBRS", ds, backend="python", budget=MemoryBudget(2))
        assert type(algo).name == "BRS"

    @pytest.mark.smoke
    def test_backend_recorded_on_results(self):
        ds = synthetic_dataset(80, [5, 5], seed=4)
        q = query_batch(ds, 1, seed=1)[0]
        py = make_algorithm("TRS", ds, budget=MemoryBudget(2)).run(q)
        np_ = make_algorithm("TRS", ds, backend="numpy", budget=MemoryBudget(2)).run(q)
        assert (py.backend, np_.backend) == ("python", "numpy")
        assert py.record_ids == np_.record_ids

    def test_vector_brs_under_dispatch(self):
        ds = synthetic_dataset(120, [6, 5], seed=9)
        q = query_batch(ds, 1, seed=3)[0]
        brs = make_algorithm("BRS", ds, budget=MemoryBudget(2)).run(q)
        vec = make_algorithm("BRS", ds, backend="numpy", budget=MemoryBudget(2)).run(q)
        assert isinstance(
            make_algorithm("BRS", ds, backend="numpy", budget=MemoryBudget(2)),
            VectorBRS,
        )
        assert vec.record_ids == brs.record_ids
        assert vec.backend == "numpy"


# --- shared-scan batches ------------------------------------------------------


class TestSharedScanBackends:
    def test_batch_equivalence_python_vs_numpy(self):
        for t in range(12):
            case = random_workload(9500 + t)
            qs = [case.query] + query_batch(case.dataset, 3, seed=t)
            kw = dict(
                budget=MemoryBudget(case.budget_pages), page_bytes=case.page_bytes
            )
            py = SharedScanTRS(case.dataset, backend="python", **kw).run_batch(qs)
            vec = SharedScanTRS(case.dataset, backend="numpy", **kw).run_batch(qs)
            assert py.results == vec.results, case.describe()
            assert (py.backend, vec.backend) == ("python", "numpy")
            for f in _CONTRACT_IO:
                assert getattr(py.stats.io, f) == getattr(vec.stats.io, f), (
                    f"{case.describe()}: {f}"
                )
            assert py.stats.db_passes == vec.stats.db_passes

    @pytest.mark.smoke
    def test_auto_backend_selection(self):
        ds = synthetic_dataset(120, [5, 5], seed=21)
        qs = query_batch(ds, 2, seed=5)
        auto = SharedScanTRS(ds, backend="auto", budget=MemoryBudget(2))
        assert auto.run_batch(qs).backend == "numpy"
        mixed = mixed_dataset(40, [4], [(0.0, 1.0)], seed=2)
        with pytest.raises(AlgorithmError):
            # Mixed schemas stay on TRS semantics: SharedScanTRS reuses TRS,
            # which rejects numeric attributes regardless of backend.
            SharedScanTRS(mixed, backend="auto", budget=MemoryBudget(2)).run_batch(
                [(0, 0.5)]
            )

    def test_unknown_backend_rejected(self):
        ds = synthetic_dataset(20, [4, 4], seed=1)
        with pytest.raises(AlgorithmError, match="unknown backend"):
            SharedScanTRS(ds, backend="gpu")


# --- phase-1 sweep schedules --------------------------------------------------


def _flatten(records, order):
    tree = ALTree(order)
    leaves = [tree.insert(rid, values) for rid, values in enumerate(records)]
    col = ColumnarALTree.from_tree(tree)
    return tree, leaves, col


class TestRankedSchedule:
    def test_top_ranked_leaf_parent_stops_every_row(self):
        """Root 0 holds the most objects and its child 0 the most under
        it, so the leaf parent (0, 0) ranks first; its leaves carry every
        value of the last attribute. With all off-diagonal distances 1
        and a query that differs from each candidate everywhere, that
        leaf parent prunes every row. The ranked sweep must stop each
        row there: one check per swept level plus one leaf probe. The
        root-first sweep pays for every passing node of root 0."""
        unit = np.ones((3, 3)) - np.eye(3)
        mats = [unit, unit, unit]
        order = [0, 1, 2]
        records = [(0, 0, v) for v in range(3) for _ in range(3)]
        records += [(0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 2, 2)]
        _, _, col = _flatten(records, order)
        leaf_mins = leaf_min_tables(col, mats, order)
        lo, _ = col.promise_spans(1)
        top = int(np.flatnonzero(lo[1] == 0)[0])
        assert (col.keys[0][col.parent[1][top]], col.keys[1][top]) == (0, 0)
        # Stacked rows: every value tuple under two queries, each one
        # shifted off the candidate on every attribute (by 1, then by 2).
        cands = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        vals = np.repeat(np.asarray(cands, dtype=np.intp), 2, axis=0)
        shift = 1 + np.arange(vals.shape[0]) % 2
        queries = (vals + shift[:, None]) % 3
        qd = np.column_stack(
            [mats[i][vals[:, i], queries[:, i]] for i in range(3)]
        )
        assert (qd == 1.0).all()
        self_paths = np.full(vals.shape, -1, dtype=np.intp)  # not in the tree
        args = (col, mats, order, vals, qd, self_paths, leaf_mins)
        prunable, checks = batch_is_prunable(*args, ranked=True)
        assert prunable.all()
        m = len(order)
        assert (checks == (m - 1) + 1).all()
        root_first, rf_checks = batch_is_prunable(*args)
        assert root_first.all()
        assert (rf_checks > checks).all()


@st.composite
def schedule_case(draw):
    m = draw(st.integers(1, 4))
    cards = [draw(st.integers(3, 5)) for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mats = [
        np.asarray(
            nonmetric_dissimilarity(c, rng).matrix
            if draw(st.booleans())
            else random_dissimilarity(c, rng, symmetric=draw(st.booleans())).matrix
        )
        for c in cards
    ]
    order = draw(st.permutations(range(m)))
    n = draw(st.integers(1, 60))
    records = [tuple(int(rng.integers(0, c)) for c in cards) for _ in range(n)]
    nrows = draw(st.integers(1, 40))
    # A row is a tree record alone in its leaf, (record id, values) —
    # records sharing a leaf take the duplicate fast path, never the
    # kernel — or an outside value tuple, (None, values).
    alone = [r for r in range(n) if records.count(records[r]) == 1]
    rows = []
    for _ in range(nrows):
        if alone and rng.random() < 0.7:
            rid = alone[int(rng.integers(0, len(alone)))]
            rows.append((rid, records[rid]))
        else:
            rows.append((None, tuple(int(rng.integers(0, c)) for c in cards)))
    queries = [tuple(int(rng.integers(0, c)) for c in cards) for _ in range(nrows)]
    split = draw(st.integers(0, nrows))
    collapse = draw(st.booleans())
    return mats, list(order), records, rows, queries, split, collapse


@given(schedule_case())
@settings(max_examples=60, deadline=None)
def test_property_ranked_schedule_matches_root_first(case):
    """Stacked rows over random non-metric trees: both schedules decide
    every row as the scalar Algorithm 4 does, and a row's checks do not
    depend on which other rows share the call."""
    mats, order, records, rows, queries, split, collapse = case
    tree, leaves, col = _flatten(records, order)
    m = len(mats)
    vals = np.asarray([values for _, values in rows], dtype=np.intp)
    qd = np.column_stack(
        [mats[i][vals[:, i], [q[i] for q in queries]] for i in range(m)]
    )
    paths = np.full((len(rows), m), -1, dtype=np.intp)  # outside: no self
    own = [j for j, (rid, _) in enumerate(rows) if rid is not None]
    if own:
        paths[own] = candidate_paths(
            col, col.leaf_indices_for([leaves[rows[j][0]] for j in own])
        )
    leaf_mins = leaf_min_tables(col, mats, order) if collapse else None
    # The scalar decision, with a tree record's own entry soft-removed.
    expected = []
    for (rid, _), c, q in zip(rows, vals.tolist(), queries):
        entry = tree.soft_remove(leaves[rid], rid) if rid is not None else None
        want, _ = is_prunable(tree, c, [mats[i][c[i], q[i]] for i in range(m)], mats)
        if entry is not None:
            tree.soft_restore(leaves[rid], entry)
        expected.append(want)
    for ranked in (False, True):
        prunable, checks = batch_is_prunable(
            col, mats, order, vals, qd, paths, leaf_mins, ranked=ranked
        )
        assert prunable.tolist() == expected
        parts = [
            batch_is_prunable(
                col, mats, order, vals[s], qd[s], paths[s], leaf_mins, ranked=ranked
            )
            for s in (slice(0, split), slice(split, None))
        ]
        assert np.concatenate([p for p, _ in parts]).tolist() == expected
        assert np.concatenate([c for _, c in parts]).tolist() == checks.tolist()
