"""Compute-backend layer: columnar kernels behind a registry/dispatch API.

The scalar algorithms in :mod:`repro.core` are the reference
implementations — readable, oracle-verified, and the source of truth for
cost accounting. This package holds their *bulk-array* counterparts: the
same algorithms expressed as numpy array programs over columnar data
structures, selected through a small backend registry:

- ``python`` — the scalar reference implementations.
- ``numpy``  — vectorised variants (``VectorTRS``, ``VectorBRS``)
  operating on the :class:`~repro.kernels.columnar.ColumnarALTree` and
  column-block pair gathers; shared-scan groups additionally run the
  *fused* multi-query kernels (:mod:`repro.kernels.fused`) — one
  stacked sweep per batch/page for the whole group.
- ``auto``   — ``numpy`` whenever a vectorised variant exists and the
  dataset qualifies (fully categorical, numpy importable; shape-gated
  variants additionally need their workload predicate to accept), else
  ``python``.

Vectorised variants are **bit-identical** to their scalar counterparts in
result membership, batch structure, database passes and page-IO counts;
only the ``checks_*`` accounting differs (frontier/column-block
granularity — see ``docs/performance.md``).
"""

from __future__ import annotations

from repro.kernels.backend import (
    BACKENDS,
    available_backends,
    normalize_backend,
    numpy_ready,
    register_variant,
    resolve_algorithm,
    scalar_variant,
    vector_variant,
)
from repro.kernels.columnar import ColumnarALTree
from repro.kernels.plancache import (
    PlanCache,
    PlanKey,
    plan_cache,
    plan_fingerprint,
)
from repro.kernels.frontier import (
    batch_is_prunable,
    candidate_paths,
    page_prune,
    query_distances,
    query_node_rows,
    scan_prune,
)

__all__ = [
    "BACKENDS",
    "ColumnarALTree",
    "PlanCache",
    "PlanKey",
    "available_backends",
    "batch_is_prunable",
    "candidate_paths",
    "normalize_backend",
    "numpy_ready",
    "page_prune",
    "plan_cache",
    "plan_fingerprint",
    "query_distances",
    "query_node_rows",
    "register_variant",
    "resolve_algorithm",
    "scalar_variant",
    "scan_prune",
    "vector_variant",
]
