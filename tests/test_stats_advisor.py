"""Dataset profiling and the algorithm advisor."""

import math

import pytest

from repro.advisor import recommend
from repro.core.numeric import NumericTRS
from repro.core.tiled import TTRS
from repro.core.trs import TRS
from repro.data.queries import query_batch
from repro.data.stats import estimate_pruner_rate, profile_dataset
from repro.data.synthetic import mixed_dataset, synthetic_dataset
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def ds():
    return synthetic_dataset(400, [8, 3, 12], seed=131)


class TestProfile:
    def test_basic_counts(self, ds):
        profile = profile_dataset(ds)
        assert profile.num_records == 400
        assert profile.num_attributes == 3
        assert profile.density == pytest.approx(ds.density())
        assert 0 <= profile.duplicate_rate < 1
        assert profile.distinct_records <= 400

    def test_attribute_profiles(self, ds):
        profile = profile_dataset(ds)
        for i, ap in enumerate(profile.attributes):
            assert ap.domain_cardinality == ds.schema[i].cardinality
            assert 1 <= ap.observed_distinct <= ap.domain_cardinality
            assert 0 <= ap.entropy_bits <= math.log2(ap.domain_cardinality)
            assert 0 < ap.top_value_share <= 1
            assert ap.effective_cardinality <= ap.domain_cardinality + 1e-9

    def test_constant_attribute_entropy_zero(self):
        base = synthetic_dataset(1, [4, 4], seed=1)
        ds = base.with_records([(2, 1)] * 50)
        profile = profile_dataset(ds)
        assert profile.attributes[0].entropy_bits == 0.0
        assert profile.attributes[0].top_value_share == 1.0
        assert profile.duplicate_rate == pytest.approx(49 / 50)

    def test_mixed_dataset_has_no_density(self):
        ds = mixed_dataset(30, [3], [(0.0, 1.0)], seed=2)
        profile = profile_dataset(ds)
        assert profile.density is None
        assert not profile.attributes[1].is_categorical
        assert "n=30" in profile.summary()

    def test_empty_dataset(self):
        ds = synthetic_dataset(0, [4], seed=1)
        profile = profile_dataset(ds)
        assert profile.num_records == 0
        assert profile.duplicate_rate == 0.0


class TestPrunerRate:
    def test_dense_higher_than_sparse(self):
        dense = synthetic_dataset(800, [4, 4], seed=3)     # density 50
        sparse = synthetic_dataset(800, [30, 30, 30], seed=3)
        q_dense = query_batch(dense, 2, seed=4)
        q_sparse = query_batch(sparse, 2, seed=4)
        assert estimate_pruner_rate(dense, q_dense) > estimate_pruner_rate(
            sparse, q_sparse
        )

    def test_bounds(self, ds):
        rate = estimate_pruner_rate(ds, query_batch(ds, 2, seed=5), samples=100)
        assert 0.0 <= rate <= 1.0

    def test_empty_inputs(self, ds):
        with pytest.raises(ExperimentError):
            estimate_pruner_rate(synthetic_dataset(0, [3], seed=1), [(0,)])
        with pytest.raises(ExperimentError):
            estimate_pruner_rate(ds, [])


class TestAdvisor:
    def test_default_is_trs(self, ds):
        rec = recommend(ds)
        assert rec.algorithm == "TRS"
        assert sorted(rec.attribute_order) == [0, 1, 2]
        assert any("Section 5.1" in r for r in rec.rationale)
        algo = rec.build(ds)
        assert isinstance(algo, TRS)

    def test_numeric_schema_gets_numeric_trs(self):
        ds = mixed_dataset(50, [4], [(0.0, 1.0)], seed=6)
        rec = recommend(ds)
        assert rec.algorithm == "NumericTRS"
        assert isinstance(rec.build(ds), NumericTRS)

    def test_subset_workload_gets_ttrs(self, ds):
        rec = recommend(ds, subset_queries_expected=True)
        assert rec.algorithm == "T-TRS"
        assert isinstance(rec.build(ds), TTRS)

    def test_calibration_produces_measurements(self, ds):
        rec = recommend(ds, calibrate=True, calibration_sample=200)
        assert rec.calibration is not None
        assert set(rec.calibration) == {"BRS", "SRS", "TRS"}
        assert all(v > 0 for v in rec.calibration.values())
        # The recommendation must be the measured cheapest or TRS-by-heuristic
        # confirmed by calibration.
        cheapest = min(rec.calibration, key=rec.calibration.get)
        assert rec.algorithm == cheapest or rec.algorithm == "TRS"

    def test_recommended_algorithm_is_correct(self, ds):
        rec = recommend(ds, calibrate=True, calibration_sample=150)
        algo = rec.build(ds, page_bytes=256)
        from repro.skyline.oracle import reverse_skyline_by_pruners

        q = query_batch(ds, 1, seed=8)[0]
        assert list(algo.run(q).record_ids) == reverse_skyline_by_pruners(ds, q)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ExperimentError):
            recommend(synthetic_dataset(0, [3], seed=1))

    def test_large_spread_dataset_gets_trs(self):
        # Large, many-valued data with a wide dissimilarity spread.
        from repro.dissim.generators import metric_like_dissimilarity

        ds = _categorical_dataset(
            2500, [8, 8, 6], metric_like_dissimilarity, seed=11
        )
        rec = recommend(ds)
        assert rec.algorithm == "TRS"
        assert type(rec.build(ds)) is TRS


def _categorical_dataset(n, cards, dissim_factory, seed):
    """A synthetic dataset with a chosen dissimilarity construction."""
    import numpy as np

    from repro.data.dataset import Dataset
    from repro.data.schema import Schema
    from repro.dissim.space import DissimilaritySpace

    rng = np.random.default_rng(seed)
    schema = Schema.categorical(cards)
    records = [
        tuple(int(rng.integers(0, c)) for c in cards) for _ in range(n)
    ]
    space = DissimilaritySpace([dissim_factory(c, rng) for c in cards])
    return Dataset(schema, records, space, validate=False, name=f"adv-{n}")


class TestBRSShapeRule:
    def test_brs_shape_predicate(self):
        from repro.advisor import brs_shape

        dense = synthetic_dataset(600, [3, 3], seed=9)  # density >> 1
        sparse = synthetic_dataset(600, [12, 12, 12, 12], seed=9)
        assert brs_shape(profile_dataset(dense))
        assert not brs_shape(profile_dataset(sparse))
        # Mixed schemas have no density — never a BRS shape.
        mixed = mixed_dataset(30, [4], [(0.0, 1.0)], seed=2)
        assert not brs_shape(profile_dataset(mixed))

    def test_calibration_brs_win_vetoed_off_shape(self, monkeypatch):
        # The BRS family is only recommended on dense low-cardinality
        # shapes, even when a calibration sample happens to measure it
        # cheapest: rig the measurement so BRS wins and check the veto.
        import repro.advisor as advisor_mod

        class _Fake:
            def __init__(self, checks):
                self._checks = checks

            def run(self, q):
                class _R:
                    pass

                r = _R()
                r.stats = type("S", (), {"checks": self._checks})()
                return r

        canned = {"BRS": 10, "SRS": 500, "TRS": 900}
        monkeypatch.setattr(
            advisor_mod,
            "make_algorithm",
            lambda name, ds, **kw: _Fake(canned[name]),
        )
        sparse = synthetic_dataset(200, [12, 12, 12, 12], seed=9)
        rec = recommend(sparse, calibrate=True)
        assert rec.algorithm == "TRS"
        assert any("only recommended" in r for r in rec.rationale)
        # On a dense shape the same measurement is honoured.
        dense = synthetic_dataset(200, [3, 3], seed=9)
        rec = recommend(dense, calibrate=True)
        assert rec.algorithm == "BRS"
        assert any("calibration override: BRS" in r for r in rec.rationale)


class TestWriteRateRule:
    def test_no_write_rate_means_no_verdict(self, ds):
        assert recommend(ds).maintenance is None

    def test_zero_writes_is_static(self, ds):
        rec = recommend(ds, write_rate=0.0)
        assert rec.maintenance == "static"

    def test_read_dominated_gets_maintained(self):
        big = synthetic_dataset(600, [6, 5, 7], seed=17)
        rec = recommend(big, write_rate=0.1)
        assert rec.maintenance == "maintained"
        assert any("MaintainedEngine" in r for r in rec.rationale)

    def test_write_dominated_gets_rebuild(self):
        big = synthetic_dataset(600, [6, 5, 7], seed=17)
        rec = recommend(big, write_rate=0.8)
        assert rec.maintenance == "rebuild"
        assert any("write-dominated" in r for r in rec.rationale)

    def test_small_dataset_gets_rebuild(self, ds):
        rec = recommend(ds, write_rate=0.1)  # ds has 400 records
        assert rec.maintenance == "rebuild"
        assert any("delta bookkeeping" in r for r in rec.rationale)

    def test_numeric_schema_gets_rebuild(self):
        mixed = mixed_dataset(600, [5, 5], [(0.0, 1.0)], seed=4)
        rec = recommend(mixed, write_rate=0.1)
        assert rec.algorithm == "NumericTRS"
        assert rec.maintenance == "rebuild"

    @pytest.mark.parametrize("bad", [-0.1, 1.5, "lots", True])
    def test_bad_write_rate_rejected(self, ds, bad):
        with pytest.raises(ExperimentError):
            recommend(ds, write_rate=bad)
