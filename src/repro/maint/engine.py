"""A :class:`~repro.engine.ReverseSkylineEngine` over a mutating dataset.

:class:`MaintainedEngine` answers reverse-skyline queries over the
logical union ``base ⊎ deltas ⊖ tombstones`` held by a
:class:`~repro.maint.store.MaintStore`, bit-identically to an engine
rebuilt from scratch over the live records (pinned by
:func:`repro.testing.verify_maint_equivalence`).

Epoch discipline — updates never quiesce readers
------------------------------------------------
All read-side state for one store epoch lives in an immutable
``_EpochContext``: the overlay snapshot, the stable-id translation
tables, and the prepared (overlay-carrying) algorithm instances for that
epoch. :meth:`apply_updates` builds the next context off to the side and
publishes it with a single attribute assignment — queries already
executing keep the context they started with and finish against the
pre-update epoch; new queries see the new one. Nothing blocks on
anything.

Cache discipline — surgical, not stop-the-world
-----------------------------------------------
- **Result cache**: keys embed :meth:`layout_fingerprint`, which is the
  base fingerprint qualified with the epoch (``…#e7``), so entries from
  different epochs can never collide. Each update bumps the cache
  version too, so a result computed against the pre-update epoch but
  settled after it cannot be stored under a post-update key.
- **Plan cache**: plan keys embed the *base* fingerprint only. Update
  epochs therefore invalidate **nothing** — the cached phase-1/scan
  plans replay unchanged against the base while delta records ride the
  overlay appendix. Only a compaction (which rewrites the base) drops
  plans, and only those of the compacted base's layouts
  (:meth:`~repro.kernels.plancache.PlanCache.invalidate_fingerprint`);
  plans of other datasets in the process stay warm.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.core.base import RSResult, Stopwatch
from repro.core.registry import get_algorithm, make_algorithm
from repro.core.trs import TRS
from repro.engine import ReverseSkylineEngine
from repro.errors import AlgorithmError
from repro.kernels import resolve_algorithm
from repro.kernels.plancache import plan_cache, plan_fingerprint
from repro.maint.store import (
    DEFAULT_COMPACT_FRACTION,
    DEFAULT_COMPACT_MIN,
    MaintStore,
    UpdateResult,
)
from repro.obs import hooks as _obs
from repro.storage.disk import DiskSimulator

__all__ = ["MaintainedEngine"]


class _EpochContext:
    """Everything a reader needs for one store epoch, immutable once
    published (the algorithms dict only ever gains entries, under the
    engine lock, and each entry is itself read-only during ``run``)."""

    __slots__ = ("algorithms", "base", "base_ids", "delta_sids", "epoch", "overlay", "values_by_sid")

    def __init__(self, *, overlay, base, base_ids, delta_sids, epoch) -> None:
        self.overlay = overlay  # None when the epoch has no pending mutations
        self.base = base
        self.base_ids = base_ids
        self.delta_sids = delta_sids
        self.epoch = epoch
        self.algorithms: dict = {}  # algorithm name -> prepared instance
        self.values_by_sid: dict | None = None  # lazy, for `where` filters


class MaintainedEngine(ReverseSkylineEngine):
    """An engine whose dataset absorbs inserts and deletes in place.

    Supports the TRS family (``TRS``/``VectorTRS``) for ``kind="query"``
    reverse skylines; skyband, subset and influence queries require a
    compacted, static base — call :meth:`compact` and open a plain engine
    for those.

    Results report **stable ids** (see :class:`~repro.maint.MaintStore`),
    not base positions — the ids survive compactions, so callers and
    caching layers can compare results across the dataset's lifetime.
    """

    def __init__(
        self,
        dataset=None,
        *,
        store: MaintStore | None = None,
        compact_fraction: float = DEFAULT_COMPACT_FRACTION,
        compact_min: int = DEFAULT_COMPACT_MIN,
        **kwargs,
    ) -> None:
        if store is None:
            if dataset is None:
                raise AlgorithmError("MaintainedEngine needs a dataset or a store")
            store = MaintStore(
                dataset,
                compact_fraction=compact_fraction,
                compact_min=compact_min,
            )
        super().__init__(store.base, **kwargs)
        self.store = store
        #: Tells the batch planner (repro.exec) never to group queries on
        #: this engine into shared scans: shared scans answer in base
        #: positions and know nothing of overlays or stable ids.
        self.maint_active = True
        #: Serialises writers (apply_updates / compact / sync); readers
        #: never take it.
        self._maint_lock = threading.RLock()
        #: Base layouts by algorithm name, reused across epochs so every
        #: epoch's instances share one physical order — and therefore one
        #: plan fingerprint, which is what lets the plan cache serve
        #: epoch N+1 with the artifacts built for epoch 0.
        self._base_layouts: dict[str, list] = {}
        #: Content hashes of those layouts, memoised for the same reason:
        #: the base is immutable between compactions, so hashing it once
        #: per engine (not once per epoch instance) keeps the first query
        #: of every epoch off the full-dataset hash.
        self._base_fps: dict[str, str] = {}
        #: Staged page images of those layouts (codec, pages, count):
        #: the data file every query stages is identical across epochs,
        #: so the packed pages are built once per engine and seeded into
        #: each epoch instance's ``_staged_pages`` memo.
        self._base_staged: dict[str, tuple] = {}
        self.plans_invalidated_total = 0
        self.plans_retained_total = 0
        self._epoch_ctx = self._build_ctx()

    # -- epoch machinery -----------------------------------------------------
    def _build_ctx(self) -> _EpochContext:
        overlay, base, base_ids, delta_sids = self.store.snapshot()
        return _EpochContext(
            overlay=None if overlay.empty else overlay,
            base=base,
            base_ids=base_ids,
            delta_sids=delta_sids,
            epoch=overlay.epoch,
        )

    def _ctx_algorithm(self, ctx: _EpochContext, name: str):
        algo = ctx.algorithms.get(name)
        if algo is None:
            with self._lock:
                algo = ctx.algorithms.get(name)
                if algo is None:
                    algo = self._build_overlay_algorithm(ctx, name)
                    ctx.algorithms[name] = algo
        return algo

    def _build_overlay_algorithm(self, ctx: _EpochContext, name: str):
        resolved = resolve_algorithm(name, self.backend, ctx.base)
        cls = get_algorithm(resolved)
        if not (isinstance(cls, type) and issubclass(cls, TRS)):
            raise AlgorithmError(
                f"maintained engines support the TRS family "
                f"(TRS/VectorTRS), not {name!r}"
            )
        algo = make_algorithm(
            name,
            ctx.base,
            backend=self.backend,
            memory_fraction=self.memory_fraction,
            page_bytes=self.page_bytes,
            overlay=ctx.overlay,
        )
        self._arm(algo)
        cached_layout = self._base_layouts.get(algo.name)
        if cached_layout is not None:
            # The cached list came from a previous epoch's prepared instance,
            # so its entries are already normalised ``(id, tuple)`` pairs and
            # the list is treated as immutable by every reader — share it
            # instead of letting ``use_layout`` re-copy 10k entries per epoch.
            algo._layout = cached_layout
        algo.prepare()
        self._base_layouts.setdefault(algo.name, algo.layout)
        staged = self._base_staged.get(algo.name)
        if staged is None:
            # Stage the base once per engine; epoch instances adopt the
            # shared pages instead of re-encoding the layout per epoch.
            pf = DiskSimulator(self.page_bytes).load_entries(
                ctx.base.schema, algo.layout, "data"
            )
            staged = (pf.codec, pf._pages, pf.num_records)
            self._base_staged[algo.name] = staged
        algo._staged_pages = staged
        if hasattr(algo, "_plan_fp"):
            fp = self._base_fps.get(algo.name)
            if fp is None:
                self._base_fps[algo.name] = algo._plan_fp()
            else:
                # Seed the instance's L1 so it never rehashes the base.
                algo._plan_fp_cache = fp
                algo._plan_fp_layout = algo._layout
        return algo

    def _algorithm(self, name: str):
        # Route every prepared-instance request (warm(), executor
        # prepare, ...) through the current epoch's context.
        return self._ctx_algorithm(self._epoch_ctx, name)

    def _translate(self, ctx: _EpochContext, result: RSResult) -> RSResult:
        """Scan-space ids (base positions, then ``len(base)+j`` for delta
        entries) → stable ids."""
        n = len(ctx.base)
        mapped = tuple(
            sorted(
                ctx.base_ids[rid] if rid < n else ctx.delta_sids[rid - n]
                for rid in result.record_ids
            )
        )
        return replace(result, record_ids=mapped)

    def _sid_values(self, ctx: _EpochContext) -> dict:
        if ctx.values_by_sid is None:
            values = {
                sid: ctx.base.records[pos] for pos, sid in enumerate(ctx.base_ids)
            }
            if ctx.overlay is not None:
                for sid, (_, vals) in zip(ctx.delta_sids, ctx.overlay.entries):
                    values[sid] = vals
            ctx.values_by_sid = values
        return ctx.values_by_sid

    def layout_fingerprint(self) -> str:
        # Epoch-qualified: result-cache keys embed this, so each update
        # batch retires the previous epoch's result entries without
        # touching plan keys (those embed the base fingerprint only).
        return f"{super().layout_fingerprint()}#e{self._epoch_ctx.epoch}"

    # -- queries -------------------------------------------------------------
    def query(self, query, *, algorithm=None, where=None) -> RSResult:
        with Stopwatch() as watch:
            ctx = self._epoch_ctx
            algo = self._ctx_algorithm(ctx, algorithm or self.default_algorithm)
            result = self._translate(ctx, algo.run(query))
            if where is not None:
                values = self._sid_values(ctx)
                kept = tuple(r for r in result.record_ids if where(values[r]))
                result = replace(result, record_ids=kept)
        return self._record("reverse-skyline", result, wall_time_s=watch.stop())

    def _execute_spec(self, spec) -> RSResult:
        if spec.kind != "query":
            raise AlgorithmError(
                f"maintained engines answer reverse-skyline queries only "
                f"(got kind={spec.kind!r}); compact() and open a plain "
                f"engine for skyband/subset queries"
            )
        ctx = self._epoch_ctx
        algo = self._ctx_algorithm(ctx, spec.algorithm or self.default_algorithm)
        return self._translate(ctx, algo.run(spec.query))

    def skyband(self, query, k: int) -> RSResult:
        raise AlgorithmError(
            "maintained engines do not answer skyband queries; "
            "compact() and open a plain engine"
        )

    def query_subset(self, attributes, query_values) -> RSResult:
        raise AlgorithmError(
            "maintained engines do not answer subset queries; "
            "compact() and open a plain engine"
        )

    def influence(self, probes):
        raise AlgorithmError(
            "maintained engines do not run influence analysis; "
            "compact() and open a plain engine"
        )

    # -- write path ----------------------------------------------------------
    def apply_updates(
        self,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[int] = (),
    ) -> UpdateResult:
        """Absorb one mutation batch and advance to the next epoch.

        Non-blocking for readers: in-flight queries finish against the
        epoch they started on; queries submitted after this returns see
        the new state. Plan-cache impact is zero unless the batch trips a
        compaction, and then only the compacted base's plans drop.
        """
        with self._maint_lock:
            old_dataset = self.dataset
            old_ctx = self._epoch_ctx
            old_layouts = dict(self._base_layouts)
            old_fps = dict(self._base_fps)
            info = self.store.apply(inserts, deletes)
            dropped = 0
            if info.compacted:
                self.dataset = self.store.base
                self._base_layouts.clear()
                self._base_fps.clear()
                self._base_staged.clear()
                # Rebuilds _full_order_entries from the new base, drops
                # prepared instances / shared scans / the fingerprint, and
                # bumps the result-cache version.
                self.invalidate_caches()
                pc = plan_cache()
                seen: set[str] = set()
                for name, layout in old_layouts.items():
                    fp = old_fps.get(name) or plan_fingerprint(
                        old_dataset, layout
                    )
                    if fp not in seen:
                        seen.add(fp)
                        d, _ = pc.invalidate_fingerprint(fp)
                        dropped += d
                self.plans_invalidated_total += dropped
            else:
                # Version bump: a result computed against the pre-update
                # epoch but settled (cached) after this point is rejected
                # by the cache's stale-version check.
                self.result_cache().invalidate()
            retained = plan_cache().stats().entries
            self.plans_retained_total += retained
            self._epoch_ctx = self._build_ctx()
            if not info.compacted:
                # The base is untouched, so the outgoing epoch's prepared
                # instances stay valid — clone them onto the new overlay
                # instead of re-preparing from scratch. In-flight queries
                # keep the old instances; the clones share only the
                # base-derived memos (see TRS.with_overlay).
                for key, prev in old_ctx.algorithms.items():
                    self._epoch_ctx.algorithms[key] = prev.with_overlay(
                        self._epoch_ctx.overlay
                    )
        if _obs.enabled:
            _obs.set_gauge("repro_maint_delta_records", float(info.delta_records))
            _obs.set_gauge("repro_maint_tombstones", float(info.tombstones))
            _obs.inc("repro_maint_updates_total")
            if info.compacted:
                _obs.inc("repro_maint_compactions_total")
            if dropped:
                _obs.inc("repro_maint_plans_invalidated_total", dropped)
            if retained:
                _obs.inc("repro_maint_plans_retained_total", retained)
        return info

    def compact(self) -> bool:
        """Force a compaction now (no-op when there is nothing pending)."""
        with self._maint_lock:
            old_dataset = self.dataset
            old_layouts = dict(self._base_layouts)
            old_fps = dict(self._base_fps)
            if not self.store.compact():
                return False
            self.dataset = self.store.base
            self._base_layouts.clear()
            self._base_fps.clear()
            self._base_staged.clear()
            self.invalidate_caches()
            pc = plan_cache()
            dropped = 0
            seen: set[str] = set()
            for name, layout in old_layouts.items():
                fp = old_fps.get(name) or plan_fingerprint(
                    old_dataset, layout
                )
                if fp not in seen:
                    seen.add(fp)
                    d, _ = pc.invalidate_fingerprint(fp)
                    dropped += d
            self.plans_invalidated_total += dropped
            self._epoch_ctx = self._build_ctx()
        if _obs.enabled:
            _obs.inc("repro_maint_compactions_total")
            if dropped:
                _obs.inc("repro_maint_plans_invalidated_total", dropped)
        return True

    # -- worker synchronisation ----------------------------------------------
    def _export_maint_wire(self) -> dict:
        """Picklable delta state for pool workers (see
        :meth:`MaintStore.wire_state`)."""
        return self.store.wire_state()

    def sync_maint_state(self, blob: dict) -> bool:
        """Adopt a parent's wire state (worker side). Returns True when
        the epoch advanced; stale re-deliveries are ignored."""
        with self._maint_lock:
            changed = self.store.install_wire_state(blob)
            if changed:
                self.result_cache().invalidate()
                self._epoch_ctx = self._build_ctx()
            return changed

    # -- observability -------------------------------------------------------
    def maint_metrics(self) -> dict:
        """Store state plus the surgical-invalidation counters the bench
        and the advisor read."""
        stats = self.store.stats()
        stats["plans_invalidated_total"] = self.plans_invalidated_total
        stats["plans_retained_total"] = self.plans_retained_total
        return stats
