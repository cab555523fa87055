"""Zero-copy publication of plan artifacts to process-pool workers.

The process pool used to ship the *whole dataset* to every worker by
pickle (``initargs``) and let each worker rebuild its dissimilarity
matrices, columnar AL-Tree plans and scan arrays from scratch.  All of
those are immutable numpy arrays, so this module packs them into **one**
``multiprocessing.shared_memory`` segment that every worker maps
read-only:

- :func:`publish_engine` flattens the engine's dataset (records as an
  ``n x m`` int array, per-attribute dissimilarity matrices) together
  with every already-built :class:`~repro.core.vector_trs.VectorTRS`
  plan into named arrays, packs them 64-byte aligned into a fresh
  segment, and returns a small picklable :class:`ShmManifest`.
- Workers call :func:`attach_arrays` (zero-copy views into the mapping),
  :func:`dataset_from_manifest` (tuples are materialised — the scalar
  hot loops want plain Python values — but every array stays a view)
  and :func:`seed_plan_cache`, which drops the imported plans straight
  into :mod:`repro.kernels.plancache` under the *same* content keys the
  worker's own ``VectorTRS`` instances would compute, so no worker ever
  rebuilds a plan the parent already has.

Segment lifecycle (the crash-cleanup story):

- The creating process owns the segment: it appears in
  :func:`active_segments` until :func:`unlink_manifest` runs, which the
  executor calls in a ``finally`` around the pool — a crashed worker
  (or a ``BrokenProcessPool``) therefore cannot leak the segment.
- Workers only ever *attach*.  Attachment unregisters the mapping from
  the ``resource_tracker`` (otherwise every worker exit would unlink a
  segment it does not own) and closes it via ``atexit``.
- If the creating process itself dies before unlinking, its own
  ``resource_tracker`` reclaims the segment; ``unlink_manifest`` treats
  an already-gone segment as success so the paths compose.

All names carry the ``repro-shm-`` prefix so CI leak gates can audit
``/dev/shm`` directly.  Segment count and bytes are exported as
``repro_shm_segments`` / ``repro_shm_bytes`` gauges.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.obs import hooks as _obs

__all__ = [
    "SHM_PREFIX",
    "ShmManifest",
    "active_segments",
    "attach_arrays",
    "attached_segments",
    "dataset_from_manifest",
    "deltas_from_manifest",
    "detach_manifest",
    "publish_arrays",
    "publish_deltas",
    "publish_engine",
    "seed_plan_cache",
    "unlink_manifest",
]

SHM_PREFIX = "repro-shm-"
_ALIGN = 64

#: Guards ``_OWNED``/``_ATTACHED`` mutation and — critically — the
#: pre-3.13 ``resource_tracker.register`` monkey-patch in
#: :func:`attach_arrays`: two threads attaching concurrently without it
#: can capture the no-op as ``orig`` and restore it permanently,
#: silently disabling tracker registration process-wide.
_LOCK = threading.Lock()

#: Segments created (and not yet unlinked) by this process.
_OWNED: dict[str, shared_memory.SharedMemory] = {}
#: Segments this process attached to (worker side); closed at exit.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_COUNTER = itertools.count()


@dataclass(frozen=True)
class ShmManifest:
    """Picklable description of one packed segment.

    ``entries`` maps each array to its slot: ``(key, dtype_str, shape,
    offset)``.  ``meta`` carries whatever small picklable metadata the
    publisher attached (schema description, plan keys, ...).
    """

    shm_name: str
    total_bytes: int
    entries: tuple
    meta: dict


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _gauges() -> None:
    if _obs.enabled:
        with _LOCK:
            count = len(_OWNED)
            total = sum(s.size for s in _OWNED.values())
        _obs.set_gauge("repro_shm_segments", float(count))
        _obs.set_gauge("repro_shm_bytes", float(total))


def active_segments() -> tuple[str, ...]:
    """Names of segments this process created and has not unlinked —
    the quantity the chaos leak gate asserts is empty after a batch."""
    with _LOCK:
        return tuple(_OWNED)


def attached_segments() -> tuple[str, ...]:
    """Names of segments this process has attached to (and not yet
    detached) — the resident-server counterpart of
    :func:`active_segments`: a long-lived process that republishes
    datasets must see this stay bounded, not grow per swap."""
    with _LOCK:
        return tuple(_ATTACHED)


def publish_arrays(arrays: dict, meta: dict | None = None) -> ShmManifest:
    """Pack named numpy arrays into one fresh shared-memory segment."""
    entries = []
    offset = 0
    contig = {}
    for key, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        contig[key] = a
        entries.append((key, a.dtype.str, tuple(a.shape), offset))
        offset = _aligned(offset + a.nbytes)
    name = f"{SHM_PREFIX}{os.getpid()}-{next(_COUNTER)}-{secrets.token_hex(4)}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
    for (key, _dt, _shape, off) in entries:
        a = contig[key]
        if a.nbytes:
            dst = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.buf, offset=off)
            dst[...] = a
    with _LOCK:
        _OWNED[name] = seg
    if _obs.enabled:
        _obs.inc("repro_shm_publish_total")
    _gauges()
    return ShmManifest(
        shm_name=name,
        total_bytes=seg.size,
        entries=tuple(entries),
        meta=dict(meta or {}),
    )


def attach_arrays(manifest: ShmManifest) -> dict:
    """Zero-copy, read-only views of a published segment's arrays.

    The mapping is cached per segment name (so repeated calls in one
    worker share it), unregistered from the ``resource_tracker`` (the
    attacher does not own the segment) and closed at interpreter exit.
    """
    with _LOCK:
        seg = _OWNED.get(manifest.shm_name) or _ATTACHED.get(manifest.shm_name)
        if seg is None:
            # Attachers must not register with the resource tracker: pools
            # share the parent's tracker process, so a second registration
            # for the same name turns the parent's eventual unlink into a
            # double-remove (noisy KeyError) — or worse, lets a worker exit
            # unlink a segment it does not own. Python 3.13 has track=False
            # for exactly this; on older interpreters suppress the
            # registration call for the duration of the attach. The whole
            # patch/attach/restore sequence runs under ``_LOCK``: without
            # it a second thread could capture the no-op as ``orig`` and
            # restore it permanently.
            try:
                seg = shared_memory.SharedMemory(
                    name=manifest.shm_name, create=False, track=False
                )
            except TypeError:
                orig = resource_tracker.register
                resource_tracker.register = lambda *a, **k: None
                try:
                    seg = shared_memory.SharedMemory(
                        name=manifest.shm_name, create=False
                    )
                finally:
                    resource_tracker.register = orig
            _ATTACHED[manifest.shm_name] = seg
            if _obs.enabled:
                _obs.inc("repro_shm_attach_total")
    out = {}
    for key, dtype_str, shape, off in manifest.entries:
        view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=seg.buf, offset=off)
        view.flags.writeable = False
        out[key] = view
    return out


def unlink_manifest(manifest: ShmManifest | str) -> None:
    """Close and unlink a segment this process created.  Idempotent, and
    an already-reclaimed segment (crashed creator, double close) counts
    as success."""
    name = manifest if isinstance(manifest, str) else manifest.shm_name
    with _LOCK:
        seg = _OWNED.pop(name, None)
    if seg is None:
        _gauges()
        return
    try:
        seg.close()
    except Exception:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    if _obs.enabled:
        _obs.inc("repro_shm_unlink_total")
    _gauges()


def detach_manifest(manifest: ShmManifest | str) -> bool:
    """Drop this process's *attachment* to a segment it does not own.

    The attach cache (:data:`_ATTACHED`) otherwise grows monotonically
    until interpreter exit — harmless in a one-shot batch worker, a real
    mapping leak in a resident server that republishes datasets across
    swaps/reloads. The server calls this for the outgoing manifest when
    it swaps datasets.

    Deliberately **not** ``seg.close()``: numpy releases its buffer
    export when a view is constructed and keeps only a reference to the
    underlying ``mmap`` object, so CPython happily unmaps a segment that
    live views still alias — turning a late reader into a segfault.
    Instead the file descriptor is closed eagerly and our references are
    dropped; the mapping itself is torn down by refcount the moment the
    last view dies. Detach is therefore always safe to call, even with
    views outstanding.

    Returns ``True`` when an attachment was dropped, ``False`` when this
    process never attached ``manifest`` (owners unlink instead — their
    lifecycle is :func:`unlink_manifest`, which this does not touch).
    """
    name = manifest if isinstance(manifest, str) else manifest.shm_name
    with _LOCK:
        seg = _ATTACHED.pop(name, None)
    if seg is None:
        return False
    if not _posix_detach(seg):
        # Unknown SharedMemory internals (non-CPython, Windows, a future
        # layout change): fall back to the public close(). It raises
        # BufferError when live views still alias the mapping — in that
        # case the mapping survives until the views die, which is merely
        # the pre-detach status quo, never a crash.
        try:
            seg.close()
        except BufferError:  # pragma: no cover - live views outstanding
            pass
    if _obs.enabled:
        _obs.inc("repro_shm_detach_total")
    return True


def _posix_detach(seg) -> bool:
    """Release a mapping through CPython's POSIX ``SharedMemory``
    internals (``_buf``/``_fd``/``_mmap``), which — unlike the public
    ``close()`` — stays safe with live numpy views outstanding: the fd
    closes now, our references drop, and the mapping itself is unmapped
    by refcount the moment the last view dies.

    Returns ``False`` without touching anything when the object does not
    have the expected shape (no ``_fd`` on Windows, alternative
    interpreters, future stdlib layouts), so the caller can fall back to
    the public API instead of silently leaking.
    """
    if not (hasattr(seg, "_buf") and hasattr(seg, "_mmap") and hasattr(seg, "_fd")):
        return False
    buf = seg._buf
    if buf is not None:
        try:
            buf.release()
        except BufferError:  # pragma: no cover - exported memoryview
            pass
        else:
            seg._buf = None
    fd = seg._fd
    if isinstance(fd, int) and fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
        seg._fd = -1
    # Drop the mmap reference: live views keep the mapping alive until
    # they die; with none left it unmaps immediately.
    seg._mmap = None
    return True


@atexit.register
def _cleanup() -> None:  # pragma: no cover - interpreter teardown
    with _LOCK:
        owned = list(_OWNED)
        attached = list(_ATTACHED.values())
        _ATTACHED.clear()
    for name in owned:
        unlink_manifest(name)
    for seg in attached:
        try:
            seg.close()
        except Exception:
            pass


# -- engine publication -------------------------------------------------------


def _dataset_arrays(dataset) -> tuple[dict, dict] | None:
    """Flatten a dataset into publishable arrays plus manifest meta.

    Returns ``None`` when the dataset cannot be represented as flat
    arrays (numeric attributes / non-matrix dissimilarities) — callers
    fall back to the pickle path and count the fallback.
    """
    from repro.dissim.matrix import MatrixDissimilarity

    schema = dataset.schema
    if not all(a.is_categorical for a in schema):
        return None
    if not all(
        isinstance(d, MatrixDissimilarity) for d in dataset.space.dissims
    ):
        return None

    arrays: dict = {
        "data.values": np.asarray(dataset.records, dtype=np.int64).reshape(
            len(dataset.records), len(schema)
        )
    }
    meta: dict = {
        "dataset_name": dataset.name,
        "num_records": len(dataset.records),
        "cardinalities": [a.cardinality for a in schema],
        "attr_names": [a.name for a in schema],
        "attr_labels": [list(a.labels) if a.labels else None for a in schema],
        "dissim_labels": [],
        "plans": [],
    }
    for i, d in enumerate(dataset.space.dissims):
        arrays[f"dissim{i}"] = np.ascontiguousarray(d.matrix, dtype=float)
        labels = getattr(d, "labels", None)
        meta["dissim_labels"].append(list(labels) if labels else None)
    return arrays, meta


def publish_engine(engine) -> ShmManifest | None:
    """Publish an engine's dataset plus every built VectorTRS plan.

    Returns ``None`` when the dataset cannot be represented as flat
    arrays — callers fall back to the pickle ``initargs`` path and count
    the fallback.
    """
    from repro.core.vector_trs import VectorTRS, export_plan

    packed = _dataset_arrays(engine.dataset)
    if packed is None:
        return None
    arrays, meta = packed

    # Ship every phase-1/scan plan the parent has already paid for, so
    # workers import instead of rebuilding. The planner's warmed holder
    # (see ``repro.exec.dispatch._warm_plan_cache``) counts too; dedupe
    # on the plan-cache identity so it and a prepared engine VectorTRS
    # do not publish the same arrays twice.
    holders = list(getattr(engine, "_algorithms", {}).values())
    warm = engine.__dict__.get("_plan_warm")
    if warm is not None:
        holders.append(warm)
    published: set = set()
    for j, algo in enumerate(holders):
        if not isinstance(algo, VectorTRS):
            continue
        batches = getattr(algo, "_p1_cache", None)
        if not batches or algo._p1_cache_layout is not algo._layout:
            continue
        identity = (algo._plan_fp(), algo.budget.pages, algo.page_bytes)
        if identity in published:
            continue
        published.add(identity)
        prefix = f"plan{j}."
        p1_meta, p1_arrays = export_plan(batches)
        for key, arr in p1_arrays.items():
            arrays[prefix + key] = arr
        plan_info = {
            "prefix": prefix,
            "fingerprint": algo._plan_fp(),
            "budget_pages": algo.budget.pages,
            "page_bytes": algo.page_bytes,
            "p1_meta": p1_meta,
            "scan": False,
        }
        scan = getattr(algo, "_scan_cache", None)
        if scan is not None and algo._scan_cache_layout is algo._layout:
            ids, vals, pages = scan
            arrays[prefix + "scan_ids"] = ids
            arrays[prefix + "scan_vals"] = vals
            arrays[prefix + "scan_pages"] = pages
            plan_info["scan"] = True
        meta["plans"].append(plan_info)
    return publish_arrays(arrays, meta)


def publish_deltas(blob: dict) -> ShmManifest | None:
    """Publish a maintained engine's delta wire state (see
    :meth:`repro.maint.MaintStore.wire_state`) as its own segment,
    alongside the base manifest.

    The segment carries the uncompacted insert ids/values and the
    tombstoned stable ids as flat int arrays; it shares the
    ``repro-shm-`` prefix and the owner-unlinks lifecycle with the base
    segment, so the ``/dev/shm`` leak audits cover delta segments with
    no extra bookkeeping. Returns ``None`` when the blob is empty (no
    pending mutations — workers then start from the bare base) or when
    the delta values cannot be flattened to ints.
    """
    deltas = blob.get("deltas") or []
    tombstones = blob.get("tombstones") or []
    if not deltas and not tombstones:
        return None
    base_ids = blob.get("base_ids")
    try:
        ids = np.asarray([sid for sid, _ in deltas], dtype=np.int64)
        num_attrs = len(deltas[0][1]) if deltas else 0
        vals = np.asarray(
            [list(v) for _, v in deltas], dtype=np.int64
        ).reshape(len(deltas), num_attrs)
        tomb = np.asarray(list(tombstones), dtype=np.int64)
        # Non-identity stable-id table (present after a compaction) —
        # an empty array stands in for None, the identity mapping.
        bids = np.asarray(
            list(base_ids) if base_ids is not None else [], dtype=np.int64
        )
    except (TypeError, ValueError, OverflowError):
        return None
    return publish_arrays(
        {"delta.ids": ids, "delta.vals": vals, "delta.tomb": tomb,
         "base.ids": bids},
        {"kind": "maint-deltas", "epoch": int(blob["epoch"])},
    )


def deltas_from_manifest(manifest: ShmManifest) -> dict:
    """Rebuild a :func:`publish_deltas` blob from an attached segment
    (worker side). Values come back as plain tuples — the maintenance
    store keeps deltas in Python structures, never as array views."""
    arrays = attach_arrays(manifest)
    ids = arrays["delta.ids"]
    vals = arrays["delta.vals"]
    bids = arrays.get("base.ids")
    return {
        "epoch": int(manifest.meta["epoch"]),
        "deltas": [
            (int(sid), tuple(int(v) for v in row))
            for sid, row in zip(ids, vals)
        ],
        "tombstones": [int(t) for t in arrays["delta.tomb"]],
        "base_ids": (
            tuple(int(i) for i in bids)
            if bids is not None and len(bids)
            else None
        ),
    }


def dataset_from_manifest(manifest: ShmManifest):
    """Rebuild the dataset from an attached segment.

    Records become plain Python tuples (the scalar algorithms and the
    storage codec iterate them in tight loops); the dissimilarity
    matrices stay zero-copy shared views.
    """
    from repro.data.dataset import Dataset
    from repro.data.schema import CATEGORICAL, Attribute, Schema
    from repro.dissim.matrix import MatrixDissimilarity
    from repro.dissim.space import DissimilaritySpace

    arrays = attach_arrays(manifest)
    meta = manifest.meta
    attributes = [
        Attribute(
            name,
            CATEGORICAL,
            card,
            labels=tuple(labels) if labels else None,
        )
        for name, card, labels in zip(
            meta["attr_names"], meta["cardinalities"], meta["attr_labels"]
        )
    ]
    dissims = [
        MatrixDissimilarity(
            arrays[f"dissim{i}"],
            labels=meta["dissim_labels"][i],
            require_zero_diagonal=False,
        )
        for i in range(len(attributes))
    ]
    records = [tuple(map(int, row)) for row in arrays["data.values"]]
    return Dataset(
        Schema(attributes),
        records,
        DissimilaritySpace(dissims),
        validate=False,
        name=meta["dataset_name"],
    )


def seed_plan_cache(manifest: ShmManifest) -> int:
    """Import every published plan into the process-wide plan cache
    under the keys the worker's own ``VectorTRS`` would compute.
    Returns the number of artifacts seeded."""
    from repro.core.vector_trs import import_plan
    from repro.kernels.plancache import PlanKey, plan_cache

    arrays = attach_arrays(manifest)
    cache = plan_cache()
    seeded = 0
    for plan in manifest.meta.get("plans", ()):
        prefix = plan["prefix"]
        fp = plan["fingerprint"]
        sub = {
            key[len(prefix):]: arr
            for key, arr in arrays.items()
            if key.startswith(prefix)
        }
        mats = [
            arrays[f"dissim{i}"]
            for i in range(len(manifest.meta["cardinalities"]))
        ]
        cache.put(PlanKey("dissim", fp), mats)
        seeded += 1
        batches = import_plan(plan["p1_meta"], sub)
        cache.put(
            PlanKey("phase1", fp, (plan["budget_pages"], plan["page_bytes"])),
            batches,
        )
        seeded += 1
        if plan["scan"]:
            cache.put(
                PlanKey("scan", fp, (plan["page_bytes"],)),
                (sub["scan_ids"], sub["scan_vals"], sub["scan_pages"]),
            )
            seeded += 1
    return seeded
