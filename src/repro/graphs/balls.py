"""BFS ball/sphere utilities over CSR adjacency (Definitions 5 and 6).

The paper's analysis constantly refers to ``B(v, r)`` (the ball of radius
``r`` around ``v``) and ``Bd(v, r)`` (the sphere at distance exactly ``r``).
Everything here operates on raw CSR arrays ``(indptr, indices)`` so the same
code serves the regular multigraph ``H`` and the small-world overlay ``G``.

The hot path is :func:`gather_neighbors`, a fully vectorized ragged gather
(per the HPC guide's "vectorize the inner loop" idiom); BFS layers are then
set operations on numpy arrays.  :func:`balls_for` runs those layers for
many sources at once; it is the one place ``B_H(v, k)`` is computed for the
small-world overlay (cold builds and churn patches alike).

Layers are deduplicated by sorting (:func:`_sorted_unique`), not with
``np.unique``: numpy 2.x's ``np.unique`` is hash-based and about ten times
slower on the few-hundred to few-thousand element arrays a BFS layer holds,
while the sort gives the same sorted output.
"""

from __future__ import annotations

import numpy as np

from .._types import BoolArray, Int8Array, Int64Array, IntArray

__all__ = [
    "gather_neighbors",
    "bfs_distances",
    "balls_for",
    "ball",
    "sphere",
    "ball_sizes",
    "eccentricity",
    "distances_to_set",
    "connected_components",
    "largest_component_mask",
]

UNREACHED = -1

#: Sources expanded together by :func:`balls_for`.  Large enough to amortize
#: the per-layer numpy calls, small enough that a block's layer arrays stay
#: a few hundred kB (an all-sources pass at n=2048 doubled peak RSS).
_BALL_BLOCK = 32


def _sorted_unique(values: IntArray) -> IntArray:
    """``np.unique(values)`` for an integer array, by sort and neighbor compare."""
    out = np.sort(values)
    if out.size < 2:
        return out
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _drop_members(keys: IntArray, known: IntArray) -> IntArray:
    """``keys`` without the entries of the sorted, non-empty array ``known``."""
    pos = np.searchsorted(known, keys)
    pos[pos == known.size] = 0
    return keys[known[pos] != keys]


def gather_neighbors(
    indptr: IntArray, indices: IntArray, nodes: IntArray
) -> IntArray:
    """Concatenate the adjacency lists of ``nodes`` (with multiplicity)."""
    nodes = np.asarray(nodes)
    if nodes.size == 0:
        return np.empty(0, dtype=indices.dtype)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # position j of the output maps into `indices` at
    # starts[row(j)] + (j - first_output_index_of_row(j))
    row_offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    pos = (
        np.arange(total, dtype=np.int64)
        - np.repeat(row_offsets, counts)
        + np.repeat(starts.astype(np.int64), counts)
    )
    return indices[pos]


def bfs_distances(
    indptr: IntArray,
    indices: IntArray,
    sources: int | IntArray,
    max_depth: int | None = None,
    *,
    blocked: BoolArray | None = None,
) -> IntArray:
    """Multi-source BFS distances; unreachable nodes get ``UNREACHED``.

    ``blocked`` is an optional boolean mask of nodes that neither relay nor
    get labelled (used e.g. to compute distances in the graph induced on
    uncrashed nodes).  Blocked sources are ignored.
    """
    n = indptr.shape[0] - 1
    dist = np.full(n, UNREACHED, dtype=np.int32)
    frontier = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if blocked is not None:
        frontier = frontier[~blocked[frontier]]
    frontier = _sorted_unique(frontier)
    dist[frontier] = 0
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        depth += 1
        nbrs = gather_neighbors(indptr, indices, frontier)
        nbrs = nbrs[dist[nbrs] == UNREACHED]
        if blocked is not None and nbrs.size:
            nbrs = nbrs[~blocked[nbrs]]
        if nbrs.size == 0:
            break
        frontier = _sorted_unique(nbrs)
        dist[frontier] = depth
    return dist


def balls_for(
    indptr: IntArray, indices: IntArray, sources: IntArray, k: int
) -> tuple[Int64Array, Int64Array, Int8Array]:
    """``B(s, k) \\ {s}`` with exact distances for every source ``s``.

    Returns ``(counts, nodes, dists)``: ``counts[i]`` is the size of the
    ball around ``sources[i]`` minus the source itself, and ``nodes`` /
    ``dists`` concatenate, in ``sources`` order, each ball's node ids
    (ascending) and their distances ``1..k``.  With ``(indptr, indices)``
    the CSR of ``H`` these are exactly the ``G``-adjacency rows of the
    sources (Section 2.1), so a cold build is ``balls_for`` over
    ``arange(n)`` and a churn patch is ``balls_for`` over the affected set.

    The adjacency must be symmetric (an undirected graph, parallel edges
    allowed).  BFS layers of a block of sources expand together, each
    reached node keyed ``src_index * n + node``; a layer's keys are
    deduplicated by sorting and, because a neighbor of a node at distance
    ``r`` is at distance ``r-1``, ``r`` or ``r+1``, tested for membership
    against only the two previous layers.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = indptr.shape[0] - 1
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise ValueError("sources must be a 1-D array of node ids")
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError(f"sources must be node ids in [0, {n})")
    counts: list[IntArray] = []
    nodes: list[IntArray] = []
    dists: list[Int8Array] = []
    for lo in range(0, sources.size, _BALL_BLOCK):
        block = sources[lo : lo + _BALL_BLOCK]
        base = np.arange(block.size, dtype=np.int64) * n
        # layers[r]: sorted keys of the nodes at distance exactly r.
        layers: list[IntArray] = [base + block]
        for _ in range(k):
            frontier = layers[-1]
            frontier_nodes = frontier % n
            deg = indptr[frontier_nodes + 1] - indptr[frontier_nodes]
            keys = np.repeat(frontier - frontier_nodes, deg)
            keys += gather_neighbors(indptr, indices, frontier_nodes)
            keys = _sorted_unique(keys)
            keys = _drop_members(keys, frontier)
            if len(layers) > 1:
                keys = _drop_members(keys, layers[-2])
            if keys.size == 0:
                break
            layers.append(keys)
        ball_keys = np.concatenate(layers[1:]) if len(layers) > 1 else base[:0]
        ball_dists = np.repeat(
            np.arange(1, len(layers), dtype=np.int8),
            [layer.size for layer in layers[1:]],
        )
        order = np.argsort(ball_keys)
        ball_keys = ball_keys[order]
        counts.append(np.bincount(ball_keys // n, minlength=block.size))
        nodes.append(ball_keys % n)
        dists.append(ball_dists[order])
    if not counts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
        )
    return (
        np.concatenate(counts).astype(np.int64, copy=False),
        np.concatenate(nodes),
        np.concatenate(dists),
    )


def ball(indptr: IntArray, indices: IntArray, v: int, r: int) -> IntArray:
    """``B(v, r)``: sorted array of nodes within distance ``r`` of ``v``."""
    dist = bfs_distances(indptr, indices, v, max_depth=r)
    return np.flatnonzero(dist != UNREACHED)


def sphere(indptr: IntArray, indices: IntArray, v: int, r: int) -> IntArray:
    """``Bd(v, r)``: sorted array of nodes at distance exactly ``r``."""
    dist = bfs_distances(indptr, indices, v, max_depth=r)
    return np.flatnonzero(dist == r)


def ball_sizes(indptr: IntArray, indices: IntArray, v: int, r: int) -> IntArray:
    """Sizes ``|B(v, 0)|, |B(v, 1)|, ..., |B(v, r)|`` as an array."""
    dist = bfs_distances(indptr, indices, v, max_depth=r)
    reached = dist[dist != UNREACHED]
    counts = np.bincount(reached, minlength=r + 1)
    return np.cumsum(counts[: r + 1])


def eccentricity(indptr: IntArray, indices: IntArray, v: int) -> int:
    """Eccentricity of ``v``; raises if the graph is disconnected from v."""
    dist = bfs_distances(indptr, indices, v)
    if np.any(dist == UNREACHED):
        raise ValueError("graph is not connected from source")
    return int(dist.max())


def distances_to_set(
    indptr: IntArray, indices: IntArray, targets: IntArray
) -> IntArray:
    """``dist(v, V')`` for every v (Definition 3), via multi-source BFS."""
    targets = np.asarray(targets)
    n = indptr.shape[0] - 1
    if targets.size == 0:
        return np.full(n, UNREACHED, dtype=np.int32)
    return bfs_distances(indptr, indices, targets)


def connected_components(
    indptr: IntArray,
    indices: IntArray,
    *,
    blocked: BoolArray | None = None,
) -> Int64Array:
    """Component label per node (-1 for blocked nodes)."""
    n = indptr.shape[0] - 1
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if labels[start] != -1 or (blocked is not None and blocked[start]):
            continue
        dist = bfs_distances(indptr, indices, start, blocked=blocked)
        labels[dist != UNREACHED] = next_label
        next_label += 1
    return labels


def largest_component_mask(
    indptr: IntArray,
    indices: IntArray,
    *,
    blocked: BoolArray | None = None,
) -> BoolArray:
    """Boolean mask of the largest connected component among unblocked nodes."""
    labels = connected_components(indptr, indices, blocked=blocked)
    if labels.max() < 0:
        return np.zeros(labels.shape[0], dtype=bool)
    counts = np.bincount(labels[labels >= 0])
    return labels == int(np.argmax(counts))
