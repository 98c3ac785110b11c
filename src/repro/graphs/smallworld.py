"""The small-world network ``G = H ∪ L`` (Section 2.1).

``E(L) = {(u, v) : dist_H(u, v) <= k}`` with ``k = ceil(d / 3)``.  Adding the
``L`` edges turns the expander ``H`` into a small-world network: neighbors of
``v`` within distance ``k/2`` in ``H`` are directly connected to each other,
so the clustering coefficient is large while the degree stays constant
(``|B_H(v, k)| < (d-1)^{k+1}``, Observation 2).

Nodes in ``G`` do **not** know a priori which of their incident edges belong
to ``H`` and which to ``L`` (they recover this via the Lemma 3 protocol, see
:mod:`repro.core.neighborhood`).  The simulator, of course, does know, and
this class exposes both views:

* ``h``: the underlying :class:`~repro.graphs.hgraph.HGraph`;
* ``g_indptr`` / ``g_indices``: CSR adjacency of the simple graph ``G``;
* ``g_dist``: for each CSR slot, ``dist_H(v, neighbor)`` (1..k), so tests and
  verification logic can reason about the hop structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .._types import Int64Array, Int8Array, IntArray, SeedLike
from .balls import balls_for, bfs_distances, gather_neighbors
from .hgraph import HGraph, generate_hgraph

__all__ = [
    "SmallWorldNetwork",
    "build_small_world",
    "lattice_parameter",
]


def lattice_parameter(d: int) -> int:
    """``k = ceil(d / 3)`` (Section 2.1)."""
    return -(-d // 3)


@dataclass(frozen=True)
class SmallWorldNetwork:
    """A sampled ``G = H ∪ L`` network instance."""

    h: HGraph
    k: int
    g_indptr: Int64Array = field(repr=False)
    g_indices: Int64Array = field(repr=False)
    g_dist: Int8Array = field(repr=False)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.h.n

    @property
    def d(self) -> int:
        return self.h.d

    def g_neighbors(self, v: int) -> Int64Array:
        """Distinct ``G``-neighbors of ``v`` (sorted)."""
        return self.g_indices[self.g_indptr[v] : self.g_indptr[v + 1]]

    def g_neighbor_dists(self, v: int) -> Int8Array:
        """``dist_H(v, u)`` for each entry of :meth:`g_neighbors`."""
        return self.g_dist[self.g_indptr[v] : self.g_indptr[v + 1]]

    def h_neighbors(self, v: int) -> Int64Array:
        """Distinct ``H``-neighbors of ``v``."""
        return self.h.unique_neighbors(v)

    def g_degree(self, v: int) -> int:
        return int(self.g_indptr[v + 1] - self.g_indptr[v])

    def is_g_edge(self, u: int, v: int) -> bool:
        nbrs = self.g_neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.shape[0] and nbrs[pos] == v)

    def is_h_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.h.neighbors(u) == v))

    def h_ball(self, v: int, r: int) -> IntArray:
        dist = bfs_distances(self.h.indptr, self.h.indices, v, max_depth=r)
        return np.flatnonzero(dist != -1)

    def g_ball(self, v: int, r: int) -> IntArray:
        dist = bfs_distances(self.g_indptr, self.g_indices, v, max_depth=r)
        return np.flatnonzero(dist != -1)

    def max_g_degree(self) -> int:
        return int(np.max(np.diff(self.g_indptr)))

    def to_networkx(self) -> Any:
        """The simple graph ``G`` as a :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            for u in self.g_neighbors(v):
                if u > v:
                    g.add_edge(v, int(u))
        return g

    def validate(self) -> None:
        """Consistency checks between ``H``, ``L`` and the stored CSR."""
        if self.k < 1:
            # k defaults to ceil(d/3); overrides (the E14 ablation) are
            # allowed but must still be a positive radius.
            raise ValueError("lattice radius k must be >= 1")
        if self.g_indptr[-1] != self.g_indices.shape[0]:
            raise ValueError("G CSR indptr/indices mismatch")
        # Symmetry and distance-tagging spot checks on a node sample,
        # reporting the first failing check of the first failing node.
        n = self.n
        sample = np.linspace(0, n - 1, num=min(n, 16), dtype=np.int64)
        deg = self.g_indptr[sample + 1] - self.g_indptr[sample]
        owner = np.repeat(np.arange(sample.size), deg)
        rows = sample[owner]
        nbrs = gather_neighbors(self.g_indptr, self.g_indices, sample)
        dists = gather_neighbors(self.g_indptr, self.g_dist, sample)
        # Symmetry: look each sampled node up in its neighbor's sorted row,
        # bisecting all sampled slots at once in O(slots) memory.
        lo = self.g_indptr[nbrs]
        end = self.g_indptr[nbrs + 1]
        hi = end.copy()
        last = self.g_indices.size - 1
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            right = live & (self.g_indices[np.minimum(mid, last)] < rows)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        found = lo < end
        found[found] = self.g_indices[lo[found]] == rows[found]
        checks = (
            (nbrs == rows, "self-loop in G adjacency"),
            ((dists < 1) | (dists > self.k), "G neighbor distance outside [1, k]"),
            (~found, "G adjacency is not symmetric"),
        )
        failed = [(int(owner[bad][0]), i) for i, (bad, _) in enumerate(checks) if bad.any()]
        if failed:
            raise ValueError(checks[min(failed)[1]][1])


def build_small_world(
    n: int,
    d: int,
    seed: SeedLike = 0,
    *,
    h: HGraph | None = None,
    k: int | None = None,
) -> SmallWorldNetwork:
    """Sample ``H(n, d)`` (unless given) and add the ``L`` edges.

    ``k`` defaults to ``ceil(d/3)``; overriding it is used by the E14
    ablation (robustness as a function of the lattice radius).
    """
    if h is None:
        h = generate_hgraph(n, d, seed)
    if k is None:
        k = lattice_parameter(h.d)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    # B_H(v, k) \ {v} are exactly v's G-neighbors, ids ascending.
    counts, g_indices, g_dist = balls_for(h.indptr, h.indices, np.arange(h.n), k)
    g_indptr = np.zeros(h.n + 1, dtype=np.int64)
    np.cumsum(counts, out=g_indptr[1:])
    net = SmallWorldNetwork(
        h=h, k=k, g_indptr=g_indptr, g_indices=g_indices, g_dist=g_dist
    )
    net.validate()
    return net
