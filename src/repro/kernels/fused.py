"""Fused multi-query kernels: one traversal pass per planner group.

The per-query shared-scan path (PR 4/5) already shares *IO* across a
planner group, but still pays one python-level kernel invocation per
(query, batch) in phase 1 and per (query, page) in phase 2 — at 125
queries that dispatch dominates. The fused tier removes it:

- **Phase 1** stacks the group's query-distance columns into one
  ``(candidates x queries, m)`` matrix and runs a *single*
  :func:`~repro.kernels.frontier.batch_is_prunable` sweep over the
  stacked candidates, on the ranked schedule whenever the group has two
  or more members. This is exact, not approximate: the frontier kernel
  decides and counts each candidate row independently (a fixed chunk
  schedule that depends only on the tree, per-row undecided filtering),
  so row ``(c, q)`` of the stacked call reproduces bit-for-bit what
  candidate ``c`` produced in query ``q``'s solo call on the same
  schedule — including its check count, which keeps the per-query
  ``checks`` decomposition identical to the per-query kernel loop.

- **Phase 2** concatenates the group's per-query survivor trees into
  one *forest* (a valid :class:`~repro.kernels.columnar.ColumnarALTree`
  whose level-0 nodes are every member tree's roots) and prunes all of
  them with one frontier descent per page. Trees never share nodes, so
  the descent restricted to query ``q``'s subtree is exactly ``q``'s
  solo :func:`~repro.kernels.frontier.page_prune`; per-level ownership
  arrays attribute each check to its query.

The fused tier consumes the same cached ``_Phase1Batch`` bundles as the
per-query path (same :class:`~repro.kernels.plancache.PlanKey`), so
plan-cache hits, shared-memory imports and the serve micro-batcher all
feed it with zero plumbing changes.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.columnar import ColumnarALTree
from repro.kernels.frontier import _expand, batch_is_prunable

__all__ = [
    "Forest",
    "build_forest",
    "fused_groups_run",
    "fused_page_prune",
    "fused_phase1",
    "note_fused_group",
    "stacked_query_distances",
]

#: Process-local count of fused group runs (the serve stats payload
#: reads this directly; the obs counter mirrors it when enabled).
_FUSED_GROUPS_RUN = 0


def note_fused_group() -> None:
    global _FUSED_GROUPS_RUN
    _FUSED_GROUPS_RUN += 1


def fused_groups_run() -> int:
    return _FUSED_GROUPS_RUN


def stacked_query_distances(
    mats: list[np.ndarray], values: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """``qd[b, j, i] = d_i(values[b, i], queries[j, i])`` — the whole
    group's query-distance columns in one gather per attribute."""
    b = values.shape[0]
    nq = queries.shape[0]
    m = len(mats)
    out = np.empty((b, nq, m), dtype=np.float64)
    for i in range(m):
        out[:, :, i] = mats[i][values[:, i][:, None], queries[None, :, i]]
    return out


def fused_phase1(
    pb,
    mats: list[np.ndarray],
    order,
    queries: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 of every member query against one cached batch bundle.

    ``pb`` is the per-query path's ``_Phase1Batch`` (plan-cache / shm
    codec unchanged). Returns ``(survive, checks)`` — both
    ``(batch, queries)`` — where column ``j`` is bit-identical to what
    the per-query sweep produces for ``queries[j]`` in a group of the
    same size.
    """
    b = len(pb.entries)
    nq = queries.shape[0]
    m = len(mats)
    prunable = np.zeros((b, nq), dtype=bool)
    checks = np.zeros((b, nq), dtype=np.int64)
    if b == 0:
        return ~prunable, checks
    qd_all = stacked_query_distances(mats, pb.vals, queries)
    if pb.dup.any():
        # Duplicate fast path, stacked: any positive query distance
        # prunes, at the attribute position the scalar loop stops at.
        positive = qd_all[pb.dup] > 0.0
        hit = positive.any(axis=2)
        prunable[pb.dup] = hit
        checks[pb.dup] = np.where(hit, np.argmax(positive, axis=2) + 1, m)
    if pb.rest.size:
        R = pb.rest.size
        pr_f, ck_f = batch_is_prunable(
            pb.col,
            mats,
            order,
            np.repeat(pb.rest_vals, nq, axis=0),
            qd_all[pb.rest].reshape(R * nq, m),
            np.repeat(pb.rest_paths, nq, axis=0),
            leaf_mins=pb.leaf_mins,
            ranked=nq >= 2,
        )
        prunable[pb.rest] = pr_f.reshape(R, nq)
        checks[pb.rest] = ck_f.reshape(R, nq)
    return ~prunable, checks


class Forest:
    """The group's phase-2 trees concatenated into one flattening.

    ``col`` is a plain :class:`ColumnarALTree` over all member trees
    (so :meth:`~ColumnarALTree.live_descendants` just works);
    ``query_of``/``entry_query`` map every node/entry back to its
    member position, ``qis`` maps positions to batch query indices.
    ``alive``/``desc_live`` are the mutable between-page state.
    """

    __slots__ = (
        "col",
        "qis",
        "q_rows",
        "query_of",
        "entry_query",
        "alive",
        "desc_live",
    )

    def __init__(self, col, qis, q_rows, query_of, entry_query) -> None:
        self.col = col
        self.qis = qis
        self.q_rows = q_rows
        self.query_of = query_of
        self.entry_query = entry_query
        self.alive = np.ones(col.entry_ids.size, dtype=bool)
        self.desc_live = col.live_descendants(self.alive)

    @property
    def live_total(self) -> int:
        return int(self.desc_live[0].sum()) if self.desc_live else 0

    def survivors(self):
        """Yield ``(qi, record_ids)`` per member query, in member order."""
        for j, qi in enumerate(self.qis):
            mask = self.alive & (self.entry_query == j)
            yield qi, self.col.entry_ids[mask]


def build_forest(items) -> Forest | None:
    """Concatenate ``(qi, col, q_rows)`` member trees into a
    :class:`Forest`; members with nothing to prune are skipped (they
    contribute zero checks either way). Returns ``None`` for an empty
    group — the caller keeps the scan-loop shape so IO charging is
    unchanged."""
    items = [
        (qi, col, q_rows)
        for qi, col, q_rows in items
        if col.keys and col.keys[0].size and col.entry_ids.size
    ]
    if not items:
        return None
    m = items[0][1].num_levels
    keys, desc, parent, child_start, child_end = [], [], [], [], []
    q_rows, query_of = [], []
    node_off = np.zeros((m, len(items) + 1), dtype=np.intp)
    for level in range(m):
        for j, (_qi, col, _qr) in enumerate(items):
            node_off[level, j + 1] = node_off[level, j] + col.keys[level].size
    for level in range(m):
        keys.append(np.concatenate([col.keys[level] for _, col, _ in items]))
        desc.append(np.concatenate([col.desc[level] for _, col, _ in items]))
        if level == 0:
            parent.append(np.zeros(keys[0].size, dtype=np.intp))
        else:
            parent.append(
                np.concatenate(
                    [
                        col.parent[level] + node_off[level - 1, j]
                        for j, (_, col, _) in enumerate(items)
                    ]
                )
            )
        if level < m - 1:
            child_start.append(
                np.concatenate(
                    [
                        col.child_start[level] + node_off[level + 1, j]
                        for j, (_, col, _) in enumerate(items)
                    ]
                )
            )
            child_end.append(
                np.concatenate(
                    [
                        col.child_end[level] + node_off[level + 1, j]
                        for j, (_, col, _) in enumerate(items)
                    ]
                )
            )
        q_rows.append(np.concatenate([qr[level] for _, _, qr in items]))
        query_of.append(
            np.concatenate(
                [
                    np.full(col.keys[level].size, j, dtype=np.intp)
                    for j, (_, col, _) in enumerate(items)
                ]
            )
        )
    entry_off = np.zeros(len(items) + 1, dtype=np.intp)
    for j, (_qi, col, _qr) in enumerate(items):
        entry_off[j + 1] = entry_off[j] + col.entry_ids.size
    leaf_off = node_off[m - 1]
    col = ColumnarALTree.from_arrays(
        keys=keys,
        desc=desc,
        parent=parent,
        child_start=child_start,
        child_end=child_end,
        leaf_start=np.concatenate(
            [c.leaf_start + entry_off[j] for j, (_, c, _) in enumerate(items)]
        ),
        leaf_count=np.concatenate([c.leaf_count for _, c, _ in items]),
        entry_ids=np.concatenate([c.entry_ids for _, c, _ in items]),
        entry_leaf=np.concatenate(
            [c.entry_leaf + leaf_off[j] for j, (_, c, _) in enumerate(items)]
        ),
    )
    entry_query = np.concatenate(
        [
            np.full(c.entry_ids.size, j, dtype=np.intp)
            for j, (_, c, _) in enumerate(items)
        ]
    )
    return Forest(
        col, tuple(qi for qi, _, _ in items), q_rows, query_of, entry_query
    )


def fused_page_prune(
    forest: Forest,
    mats: list[np.ndarray],
    order,
    e_ids: np.ndarray,
    e_vals: np.ndarray,
) -> np.ndarray:
    """One page of scanned objects against the whole forest.

    Mutates ``forest.alive``/``forest.desc_live`` exactly as per-query
    :func:`~repro.kernels.frontier.page_prune` calls would, and returns
    per-member check counts (index = member position in
    ``forest.qis``).
    """
    col = forest.col
    m = col.num_levels
    nq = len(forest.qis)
    pq_checks = np.zeros(nq, dtype=np.int64)
    E = e_ids.size
    if E == 0 or m == 0 or not forest.alive.any():
        return pq_checks
    # One level-synchronous descent over the forest.
    n0 = col.keys[0].size
    e_idx = np.repeat(np.arange(E, dtype=np.intp), n0)
    node_idx = np.tile(np.arange(n0, dtype=np.intp), E)
    found_closer = np.zeros(e_idx.size, dtype=bool)
    doomed_leaves = np.zeros(0, dtype=np.intp)
    doomed_e = np.zeros(0, dtype=np.intp)
    for level in range(m):
        i = order[level]
        live = forest.desc_live[level][node_idx] > 0
        pq_checks += np.bincount(
            forest.query_of[level][node_idx[live]], minlength=nq
        )
        d_pe = mats[i][col.keys[level][node_idx], e_vals[e_idx, i]]
        d_pq = forest.q_rows[level][node_idx]
        keep = live & (d_pe <= d_pq)
        found_closer = found_closer[keep] | (d_pe[keep] < d_pq[keep])
        e_idx = e_idx[keep]
        node_idx = node_idx[keep]
        if e_idx.size == 0:
            break
        if level == m - 1:
            doomed_leaves = node_idx[found_closer]
            doomed_e = e_idx[found_closer]
            break
        node_idx, (e_idx, found_closer) = _expand(
            col, level, node_idx, e_idx, found_closer
        )
    if doomed_leaves.size:
        # Identity-aware removal: an entry of a dominated leaf survives
        # only as the *sole* dominator's own record (see
        # :func:`~repro.kernels.frontier.page_prune`).
        nleaf = col.keys[m - 1].size
        dom_count = np.bincount(doomed_leaves, minlength=nleaf)
        last_dom = np.full(nleaf, -1, dtype=np.intp)
        last_dom[doomed_leaves] = e_ids[doomed_e]
        lc = dom_count[col.entry_leaf]
        removed = forest.alive & (
            (lc >= 2) | ((lc == 1) & (col.entry_ids != last_dom[col.entry_leaf]))
        )
        if removed.any():
            forest.alive = forest.alive & ~removed
            forest.desc_live = col.live_descendants(forest.alive)
    return pq_checks
