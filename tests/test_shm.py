"""Tests for the zero-copy shared-memory layer (repro.exec.shm).

Everything here runs in one process — attach works on the publishing
process too, so the pack/attach/rebuild codec and the segment lifecycle
are testable without a pool. Cross-process behaviour is exercised by the
planner tests and the chaos harness (``use_shm=True``).
"""

import glob

import numpy as np
import pytest

from repro.data.synthetic import mixed_dataset, synthetic_dataset
from repro.exec import shm as _shm


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must end with zero owned segments."""
    yield
    for name in _shm.active_segments():
        _shm.unlink_manifest(name)
    assert _shm.active_segments() == ()
    assert not glob.glob("/dev/shm/repro-shm-*")


class TestSegmentLifecycle:
    def test_publish_attach_roundtrip_bitwise(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64).reshape(10, 10),
            "b": np.linspace(0.0, 1.0, 7),
            "c": np.array([], dtype=np.int64),
        }
        manifest = _shm.publish_arrays(arrays, {"tag": "t"})
        try:
            assert manifest.shm_name.startswith(_shm.SHM_PREFIX)
            assert manifest.meta["tag"] == "t"
            assert manifest.shm_name in _shm.active_segments()
            views = _shm.attach_arrays(manifest)
            for key, arr in arrays.items():
                got = views[key]
                assert got.dtype == arr.dtype and got.shape == arr.shape
                assert np.array_equal(got, arr)
                assert not got.flags.writeable  # shared views are read-only
        finally:
            _shm.unlink_manifest(manifest)
        assert manifest.shm_name not in _shm.active_segments()

    def test_unlink_is_idempotent(self):
        manifest = _shm.publish_arrays({"x": np.arange(4)})
        _shm.unlink_manifest(manifest)
        _shm.unlink_manifest(manifest)  # second unlink: no-op, no raise
        _shm.unlink_manifest(manifest.shm_name)

    def test_manifest_is_picklable(self):
        import pickle

        manifest = _shm.publish_arrays({"x": np.arange(4)})
        try:
            clone = pickle.loads(pickle.dumps(manifest))
            assert np.array_equal(_shm.attach_arrays(clone)["x"], np.arange(4))
        finally:
            _shm.unlink_manifest(manifest)


class TestEnginePublication:
    def _engine(self, ds):
        from repro.engine import ReverseSkylineEngine

        return ReverseSkylineEngine(ds, algorithm="TRS", log_queries=False)

    def test_dataset_roundtrips_and_answers_identically(self):
        ds = synthetic_dataset(120, [5, 4, 4], seed=7)
        engine = self._engine(ds)
        manifest = _shm.publish_engine(engine)
        assert manifest is not None
        try:
            rebuilt = _shm.dataset_from_manifest(manifest)
            assert rebuilt.records == ds.records
            assert rebuilt.schema.cardinalities() == ds.schema.cardinalities()
            for d0, d1 in zip(ds.space.dissims, rebuilt.space.dissims):
                assert np.array_equal(
                    np.asarray(d0.matrix), np.asarray(d1.matrix)
                )
            q = tuple(0 for _ in range(3))
            want = self._engine(ds).query(q).record_ids
            got = self._engine(rebuilt).query(q).record_ids
            assert got == want
        finally:
            _shm.unlink_manifest(manifest)

    def test_numeric_dataset_falls_back_to_none(self):
        ds = mixed_dataset(30, [4], [(0.0, 1.0)], seed=2)
        assert _shm.publish_engine(self._engine(ds)) is None
        assert _shm.active_segments() == ()

    def test_warmed_plans_ship_and_seed_the_worker_cache(self):
        from repro.exec.dispatch import _warm_plan_cache
        from repro.kernels.plancache import configure, plan_cache

        ds = synthetic_dataset(150, [5, 5, 5], seed=9)
        engine = self._engine(ds)
        configure(256 * 1024 * 1024)
        _warm_plan_cache(engine)
        manifest = _shm.publish_engine(engine)
        assert manifest is not None
        try:
            assert len(manifest.meta["plans"]) == 1
            assert manifest.meta["plans"][0]["scan"] is True
            # Simulate the worker side: empty cache, seed from the segment.
            configure(256 * 1024 * 1024)
            seeded = _shm.seed_plan_cache(manifest)
            assert seeded == 3  # dissim + phase1 + scan
            before = plan_cache().stats()
            rebuilt = _shm.dataset_from_manifest(manifest)
            from repro.core.vector_trs import VectorTRS

            algo = VectorTRS(rebuilt)
            result = algo.run(tuple(0 for _ in range(3)))
            after = plan_cache().stats()
            assert after.misses == before.misses  # imported, not rebuilt
            assert after.hits > before.hits
            want = VectorTRS(ds).run(tuple(0 for _ in range(3)))
            assert result.record_ids == want.record_ids
            assert result.stats.io.total == want.stats.io.total
        finally:
            _shm.unlink_manifest(manifest)
            configure(256 * 1024 * 1024)


class TestAttachRaceAndDetach:
    """Regressions for the resident-server concurrency bugs: the
    resource-tracker monkey-patch race and the attached-mapping leak."""

    @staticmethod
    def _forced_attach(manifest):
        """Take the real attach path even in the publishing process by
        hiding the owned entry (attach_arrays short-circuits on it)."""
        seg = _shm._OWNED.pop(manifest.shm_name)
        return seg

    def test_threaded_attach_storm_keeps_tracker_intact(self):
        """100 iterations of 8 threads attaching the same segment at
        once: resource_tracker.register must survive bit-identical.

        Before the module lock, two threads could both enter the
        pre-3.13 fallback, one capturing the other's no-op as ``orig``
        and restoring it permanently — silently disabling tracker
        registration for the whole process.
        """
        import threading
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        manifest = _shm.publish_arrays({"x": np.arange(64, dtype=np.int64)})
        seg = self._forced_attach(manifest)
        try:
            for _ in range(100):
                views: list = []
                errors: list = []
                barrier = threading.Barrier(8)

                def attach():
                    try:
                        barrier.wait()
                        views.append(_shm.attach_arrays(manifest)["x"])
                    except Exception as exc:  # pragma: no cover - fail path
                        errors.append(exc)

                threads = [threading.Thread(target=attach) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors
                assert len(views) == 8
                assert all(int(v[3]) == 3 for v in views)
                # THE assertion: the tracker hook is the original function.
                assert resource_tracker.register is orig_register
                del views
                assert _shm.detach_manifest(manifest) is True
            assert _shm.attached_segments() == ()
        finally:
            _shm.detach_manifest(manifest)
            _shm._OWNED[manifest.shm_name] = seg
            _shm.unlink_manifest(manifest)
        assert resource_tracker.register is orig_register

    def test_detach_manifest_drops_attachment(self):
        manifest = _shm.publish_arrays({"x": np.arange(8, dtype=np.int64)})
        seg = self._forced_attach(manifest)
        try:
            views = _shm.attach_arrays(manifest)
            assert manifest.shm_name in _shm.attached_segments()
            assert _shm.detach_manifest(manifest) is True
            assert manifest.shm_name not in _shm.attached_segments()
            # Live views outlast the detach safely: the mapping is torn
            # down by refcount when the last view dies, not before.
            assert int(views["x"][5]) == 5
            del views
            # Idempotent: a second detach (or an unknown name) is False.
            assert _shm.detach_manifest(manifest) is False
            assert _shm.detach_manifest("repro-shm-never-existed") is False
        finally:
            _shm.detach_manifest(manifest)
            _shm._OWNED[manifest.shm_name] = seg
            _shm.unlink_manifest(manifest)

    def test_detach_actually_unmaps_the_segment(self):
        """Regression for the private-internals dance in detach: the
        point of detach is that the *mapping* goes away, not just the
        dict entry. /proc/self/maps names every mapped /dev/shm file, so
        the segment must vanish from it once detach runs with no live
        views — if a stdlib change silently turns detach into a no-op,
        this catches it."""
        import os

        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps (Linux)")

        def mappings(name: str) -> int:
            with open("/proc/self/maps") as fh:
                return sum(name in line for line in fh)

        manifest = _shm.publish_arrays(
            {"x": np.arange(65536, dtype=np.int64)}
        )
        # The owner's own mapping (held by ``seg``) stays put throughout;
        # what must come and go is the *attachment's* extra mapping.
        seg = self._forced_attach(manifest)
        try:
            baseline = mappings(manifest.shm_name)
            views = _shm.attach_arrays(manifest)
            assert mappings(manifest.shm_name) > baseline
            del views
            assert _shm.detach_manifest(manifest) is True
            assert mappings(manifest.shm_name) == baseline
        finally:
            _shm.detach_manifest(manifest)
            _shm._OWNED[manifest.shm_name] = seg
            _shm.unlink_manifest(manifest)

    def test_detach_falls_back_to_close_on_unknown_internals(self):
        """A SharedMemory whose private attributes are not the expected
        CPython/POSIX shape must still detach via the public close(),
        never become a silent no-op."""

        class OpaqueSeg:
            closed = False

            def close(self):
                self.closed = True

        opaque = OpaqueSeg()
        with _shm._LOCK:
            _shm._ATTACHED["fake-opaque-seg"] = opaque
        assert _shm.detach_manifest("fake-opaque-seg") is True
        assert opaque.closed
        assert "fake-opaque-seg" not in _shm.attached_segments()

    def test_detach_never_touches_owned_segments(self):
        manifest = _shm.publish_arrays({"x": np.arange(4)})
        try:
            # The owner's mapping is not an attachment; detach is a no-op
            # and the segment stays published.
            assert _shm.detach_manifest(manifest) is False
            assert manifest.shm_name in _shm.active_segments()
            views = _shm.attach_arrays(manifest)  # owner attach: owned seg
            assert _shm.attached_segments() == ()
            del views
        finally:
            _shm.unlink_manifest(manifest)
