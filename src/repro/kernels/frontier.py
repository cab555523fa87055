"""Frontier-based array kernels for the AL-Tree traversals.

The scalar ``is_prunable`` / ``prune_tree`` (Algorithms 4 and 5) walk
the tree one node per Python iteration. The kernels here process a whole
*frontier* — every (traversal, node) pair alive at one tree level — per
step: each of the ``m`` levels costs a handful of numpy gathers and
boolean reductions over flat arrays, whatever the frontier size.

Both kernels are exact in their *decisions*: a candidate is reported
prunable, and a tree object is removed, in precisely the cases the
scalar traversals decide — the group-level elimination (descend only
while ``d <= d_q``), the ``FoundCloser`` strictness flag, soft-removed
self paths and record-identity exclusion are all reproduced. What
changes is the *order* of work, and therefore the ``checks_*``
accounting: the scalar code visits promising subtrees first and aborts
at the first pruner leaf, while a frontier sweep finishes each chunk it
starts. Checks are counted at (traversal, live-child) granularity — the
array analogue of Algorithm 4's line-9 counter — and land on either side
of the scalar counts: a root-first phase-1 sweep finishes the whole
largest root, while the ranked schedule stops a row after the small
rank range that prunes it and a collapsed leaf level costs one probe
(see ``docs/performance.md`` for the accounting contract).

Gather caching: everything that depends only on (query, batch) is
computed once and passed in — :func:`query_distances` (phase 1's ``qd``
vectors for all batch candidates) and :func:`query_node_rows` (phase 2's
per-node ``d(u, q)`` thresholds) — instead of once per (object, query)
pair as in the scalar code.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.columnar import ColumnarALTree

__all__ = [
    "batch_is_prunable",
    "candidate_paths",
    "leaf_min_tables",
    "page_prune",
    "query_distances",
    "query_node_rows",
    "scan_prune",
]


def query_distances(
    mats: list[np.ndarray], values: np.ndarray, query: tuple
) -> np.ndarray:
    """``qd[b, i] = d_i(values[b, i], q_i)`` for a whole candidate batch —
    one gather per attribute per (query, batch)."""
    if values.size == 0:
        return np.zeros((0, len(mats)))
    return np.column_stack(
        [mats[i][values[:, i], query[i]] for i in range(len(mats))]
    )


def query_node_rows(
    col: ColumnarALTree, mats: list[np.ndarray], order: list[int], query: tuple
) -> list[np.ndarray]:
    """Per-level ``d_i(key, q_i)`` thresholds for every tree node — the
    phase-2 quantities that depend only on (tree, query), gathered once
    and reused for every scanned database object."""
    return [
        mats[order[level]][col.keys[level], query[order[level]]]
        for level in range(col.num_levels)
    ]


def candidate_paths(col: ColumnarALTree, leaf_indices: np.ndarray) -> np.ndarray:
    """``paths[b, l]`` = index (in level ``l``) of candidate ``b``'s own
    path node — the array form of ``soft_remove``: the kernels subtract
    one descendant along this path so a candidate never prunes itself."""
    m = col.num_levels
    paths = np.empty((leaf_indices.size, m), dtype=np.intp)
    if m == 0:
        return paths
    idx = np.asarray(leaf_indices, dtype=np.intp)
    for level in range(m - 1, -1, -1):
        paths[:, level] = idx
        if level > 0:
            idx = col.parent[level][idx]
    return paths


def leaf_min_tables(
    col: ColumnarALTree, mats: list[np.ndarray], order: list[int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Collapsed-leaf-level lookup tables, query-independent per batch.

    For each last-internal-level node ``u`` and each value ``v`` of the
    leaf attribute:

    - ``amin[u, v]``   — the smallest ``d(v, key)`` over ``u``'s leaves.
    - ``amin_ex[u, v]`` — the same minimum *excluding* the leaf whose key
      is ``v`` itself (leaf keys are unique per parent), i.e. the
      soft-removed view a candidate sees under its own parent.

    With these, :func:`batch_is_prunable` never expands the leaf level —
    the largest frontier by far: whether a surviving (candidate, parent)
    pair reaches a pruner leaf reduces to one table lookup against
    ``qd``. Returns ``None`` for trees of depth < 2 (no leaf parent
    level to collapse).
    """
    m = col.num_levels
    if m < 2 or col.keys[m - 1].size == 0:
        return None
    i = order[m - 1]
    keys = col.keys[m - 1]
    # d(v, key) for every leaf, all values of the leaf attribute at once.
    dists = mats[i][:, keys]  # card x nleaf
    starts = col.child_start[m - 2]
    amin = np.minimum.reduceat(dists, starts, axis=1).T
    masked = np.where(
        keys[np.newaxis, :] == np.arange(mats[i].shape[0])[:, np.newaxis],
        np.inf,
        dists,
    )
    amin_ex = np.minimum.reduceat(masked, starts, axis=1).T
    return amin, amin_ex


def _expand(
    col: ColumnarALTree, level: int, node_idx: np.ndarray, *companions: np.ndarray
):
    """Replace each frontier pair's node with its children (CSR slice
    expansion), repeating the companion arrays alongside."""
    starts = col.child_start[level][node_idx]
    counts = col.child_end[level][node_idx] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, tuple(c[:0] for c in companions)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    children = np.repeat(starts, counts) + offsets
    return children, tuple(np.repeat(c, counts) for c in companions)


def _schedule(col: ColumnarALTree, last: int, ranked: bool):
    """The chunks one :func:`batch_is_prunable` sweep runs, in order:
    ``(roots, window)`` pairs, ``window`` being ``None`` or the rank range
    ``(lo, hi, a, b)`` that restricts the chunk (see
    :meth:`ColumnarALTree.promise_spans`)."""
    if not ranked:
        roots = np.argsort(-col.desc[0], kind="stable").astype(np.intp)
        yield roots[:1], None
        yield roots[1:], None
        return
    lo, hi = col.promise_spans(last)
    total = col.keys[last].size
    a, b = 0, 1
    while a < total:
        yield np.flatnonzero((lo[0] < b) & (hi[0] > a)), (lo, hi, a, b)
        a, b = b, min(2 * b, total)  # sizes 1, 1, 2, 4, ...


def batch_is_prunable(
    col: ColumnarALTree,
    mats: list[np.ndarray],
    order: list[int],
    cand_vals: np.ndarray,
    qd: np.ndarray,
    self_paths: np.ndarray,
    leaf_mins: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    ranked: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 4 for a whole candidate batch at once.

    For each candidate ``b`` (rows of ``cand_vals``), decides whether any
    *other* object in the flattened tree dominates the query with respect
    to it. ``qd`` comes from :func:`query_distances`, ``self_paths`` from
    :func:`candidate_paths` (each candidate's one soft-removed entry).

    Returns ``(prunable, checks)``: boolean and per-candidate check-count
    arrays of length ``B``.

    The sweep runs in chunks, and a row leaves as soon as a chunk proves
    it prunable. With ``leaf_mins`` (from :func:`leaf_min_tables`) the
    leaf level — the widest frontier — is never expanded at all:
    reaching a pruner leaf reduces to a lookup in the collapsed
    min-distance tables. Two chunk schedules:

    - root-first (default): the largest root (by descendant count) runs
      alone, then the remaining roots together. Candidates the big
      subtree proves prunable never pay for the rest, while the tail
      chunk amortises the per-level numpy dispatch over every leftover
      root at once.
    - ``ranked``: the last swept level's nodes (the leaf parents, or
      the leaves without ``leaf_mins``) in Algorithm 4's visit order
      (:meth:`ColumnarALTree.promise_spans`), over rank ranges of
      doubling size 1, 1, 2, 4, …; each level carries only the nodes
      whose subtree overlaps the range. Rows the most promising path
      prunes pay one check per level, as in the scalar guided search,
      instead of the whole largest root. More chunks mean more numpy
      calls, which pays off on stacked group sweeps.

    Both schedules reach the same decisions. Each row is decided and
    counted on its own under either, so splitting the rows over several
    calls changes no row's result or check count.
    """
    B = cand_vals.shape[0]
    prunable = np.zeros(B, dtype=bool)
    checks = np.zeros(B, dtype=np.int64)
    m = col.num_levels
    if B == 0 or m == 0 or col.keys[0].size == 0:
        return prunable, checks
    collapse = leaf_mins is not None and m >= 2
    last = m - 2 if collapse else m - 1
    i_leaf = order[m - 1]
    undecided = np.arange(B, dtype=np.intp)
    for chunk, window in _schedule(col, last, ranked):
        if undecided.size == 0 or chunk.size == 0:
            break
        cand_idx = np.tile(undecided, chunk.size)
        node_idx = np.repeat(chunk, undecided.size)
        found_closer = np.zeros(cand_idx.size, dtype=bool)
        for level in range(last + 1):
            i = order[level]
            # Effective descendants: the candidate's own path carries one
            # fewer object (its soft-removed self).
            live = (
                col.desc[level][node_idx]
                - (self_paths[cand_idx, level] == node_idx)
            ) > 0
            checks += np.bincount(cand_idx[live], minlength=B)
            d_cp = mats[i][cand_vals[cand_idx, i], col.keys[level][node_idx]]
            d_cq = qd[cand_idx, i]
            keep = live & (d_cp <= d_cq)
            found_closer = found_closer[keep] | (d_cp[keep] < d_cq[keep])
            cand_idx = cand_idx[keep]
            node_idx = node_idx[keep]
            if cand_idx.size == 0:
                break
            if level == last:
                if collapse:
                    # Collapsed leaf probe: one check per surviving
                    # (candidate, leaf-parent) pair, against the batch's
                    # min-distance tables (self-excluding under the
                    # candidate's own parent).
                    checks += np.bincount(cand_idx, minlength=B)
                    amin, amin_ex = leaf_mins
                    own = self_paths[cand_idx, m - 2] == node_idx
                    leaf_vals = cand_vals[cand_idx, i_leaf]
                    best = np.where(
                        own,
                        amin_ex[node_idx, leaf_vals],
                        amin[node_idx, leaf_vals],
                    )
                    d_q = qd[cand_idx, i_leaf]
                    hit = np.where(found_closer, best <= d_q, best < d_q)
                    prunable[cand_idx[hit]] = True
                else:
                    # Leaves reached with FoundCloser set are pruners.
                    prunable[cand_idx[found_closer]] = True
                break
            node_idx, (cand_idx, found_closer) = _expand(
                col, level, node_idx, cand_idx, found_closer
            )
            if window is not None:
                lo, hi, a, b = window
                inside = (lo[level + 1][node_idx] < b) & (
                    hi[level + 1][node_idx] > a
                )
                node_idx = node_idx[inside]
                cand_idx = cand_idx[inside]
                found_closer = found_closer[inside]
        undecided = undecided[~prunable[undecided]]
    return prunable, checks


def page_prune(
    col: ColumnarALTree,
    mats: list[np.ndarray],
    order: list[int],
    q_rows: list[np.ndarray],
    e_ids: np.ndarray,
    e_vals: np.ndarray,
    alive: np.ndarray,
    desc_live: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Algorithm 5 for a whole page of scanned database objects at once.

    Removes from the (flattened) tree every entry ``x`` such that some
    scanned object ``e`` dominates the query with respect to ``x`` —
    except entries whose record id *is* that ``e`` (identity, not value:
    an object never prunes itself, but duplicates of it are removed).
    ``q_rows`` comes from :func:`query_node_rows`; ``alive`` and
    ``desc_live`` carry the tree's mutable state between pages.

    Returns ``(alive, desc_live, checks)`` — the updated entry mask, the
    recomputed per-level live counts, and per-scanned-object check
    counts.
    """
    E = e_ids.size
    checks = np.zeros(E, dtype=np.int64)
    m = col.num_levels
    if E == 0 or m == 0 or col.keys[0].size == 0 or not alive.any():
        return alive, desc_live, checks
    n0 = col.keys[0].size
    e_idx = np.repeat(np.arange(E, dtype=np.intp), n0)
    node_idx = np.tile(np.arange(n0, dtype=np.intp), E)
    found_closer = np.zeros(e_idx.size, dtype=bool)
    doomed_leaves = np.zeros(0, dtype=np.intp)
    doomed_e = np.zeros(0, dtype=np.intp)
    for level in range(m):
        i = order[level]
        live = desc_live[level][node_idx] > 0
        checks += np.bincount(e_idx[live], minlength=E)
        d_pe = mats[i][col.keys[level][node_idx], e_vals[e_idx, i]]
        d_pq = q_rows[level][node_idx]
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
    if doomed_leaves.size == 0:
        return alive, desc_live, checks
    # Identity-aware removal. An entry of a dominated leaf survives only
    # if its record id equals the *sole* dominator's id: with two or more
    # dominators, some e differs from the entry's id and removes it.
    nleaf = col.keys[m - 1].size
    dom_count = np.bincount(doomed_leaves, minlength=nleaf)
    sole_dominator = np.full(nleaf, -1, dtype=np.intp)
    sole_dominator[doomed_leaves] = e_ids[doomed_e]
    lc = dom_count[col.entry_leaf]
    removed = alive & (
        (lc >= 2)
        | ((lc == 1) & (col.entry_ids != sole_dominator[col.entry_leaf]))
    )
    if removed.any():
        alive = alive & ~removed
        desc_live = col.live_descendants(alive)
    return alive, desc_live, checks


def scan_prune(
    col: ColumnarALTree,
    mats: list[np.ndarray],
    order: list[int],
    q_rows: list[np.ndarray],
    e_ids: np.ndarray,
    e_vals: np.ndarray,
    e_page: np.ndarray,
    chunk: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 5 for the *entire data scan* in one frontier sweep.

    Phase 2's removals are value-based and monotone, so whether (and on
    which page) a tree entry dies is independent of processing order: it
    is removed by the earliest-scanned object that dominates the query
    with respect to it and is not the entry's own record. This kernel
    computes exactly that — ``first_kill[j]`` is the page index of entry
    ``j``'s first identity-valid dominator, or ``num_pages`` when none
    exists — in one descent over all (object, node) pairs, instead of one
    :func:`page_prune` call per page. The caller then derives the precise
    page at which the scalar scan would have found its tree empty (the
    max of the first-kill pages when every entry dies) and replays the
    charged scan to that same page, keeping IO bit-identical to TRS.

    ``e_ids`` / ``e_vals`` / ``e_page`` describe the file in scan order;
    ``chunk`` bounds peak frontier memory. Also returns per-scanned-object
    check counts at (object, node) frontier granularity; objects on pages
    the scalar scan never reads must be excluded by the caller.
    """
    m = col.num_levels
    n_entries = col.entry_ids.size
    E = e_ids.size
    num_pages = int(e_page[-1]) + 1 if E else 0
    first_kill = np.full(n_entries, num_pages, dtype=np.intp)
    checks = np.zeros(E, dtype=np.int64)
    if E == 0 or n_entries == 0 or m == 0 or col.keys[0].size == 0:
        return first_kill, checks
    n0 = col.keys[0].size
    for start in range(0, E, chunk):
        stop = min(start + chunk, E)
        e_idx = np.repeat(np.arange(start, stop, dtype=np.intp), n0)
        node_idx = np.tile(np.arange(n0, dtype=np.intp), stop - start)
        found_closer = np.zeros(e_idx.size, dtype=bool)
        for level in range(m):
            i = order[level]
            checks += np.bincount(e_idx, minlength=E)
            d_pe = mats[i][col.keys[level][node_idx], e_vals[e_idx, i]]
            d_pq = q_rows[level][node_idx]
            keep = d_pe <= d_pq
            found_closer = found_closer[keep] | (d_pe[keep] < d_pq[keep])
            e_idx = e_idx[keep]
            node_idx = node_idx[keep]
            if e_idx.size == 0:
                break
            if level == m - 1:
                leaves = node_idx[found_closer]
                dooming_e = e_idx[found_closer]
                counts = col.leaf_count[leaves]
                total = int(counts.sum())
                if total:
                    offsets = np.arange(total) - np.repeat(
                        np.cumsum(counts) - counts, counts
                    )
                    entry_idx = np.repeat(col.leaf_start[leaves], counts) + offsets
                    e_rep = np.repeat(dooming_e, counts)
                    # Identity, not value: an object never kills its own
                    # entry, but duplicates of it do.
                    valid = col.entry_ids[entry_idx] != e_ids[e_rep]
                    np.minimum.at(
                        first_kill, entry_idx[valid], e_page[e_rep[valid]]
                    )
                break
            node_idx, (e_idx, found_closer) = _expand(
                col, level, node_idx, e_idx, found_closer
            )
    return first_kill, checks
