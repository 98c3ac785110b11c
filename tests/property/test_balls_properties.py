"""Property tests for the many-source k-ball kernel :func:`balls_for`.

The oracle is a plain-Python BFS over adjacency lists that shares no code
with the kernel; :func:`bfs_distances` (``max_depth=k`` per source) must
agree with both.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import build_small_world, generate_hgraph
from repro.graphs.balls import balls_for, bfs_distances

sizes = st.integers(min_value=3, max_value=96)
degrees = st.sampled_from([2, 4, 6, 8])
seeds = st.integers(min_value=0, max_value=2**31)
radii = st.integers(min_value=1, max_value=4)
# Raw ids, reduced mod n: any order, repeats allowed, longer than one block.
raw_sources = st.lists(st.integers(min_value=0, max_value=10**6), max_size=80)


def oracle_ball(indptr, indices, source, k):
    """``{node: dist}`` for ``B(source, k) \\ {source}`` by textbook BFS."""
    adj = indices.tolist()
    ptr = indptr.tolist()
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if dist[v] == k:
            continue
        for u in adj[ptr[v] : ptr[v + 1]]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    del dist[source]
    return dist


def assert_matches_oracle(indptr, indices, sources, k):
    counts, nodes, dists = balls_for(indptr, indices, np.asarray(sources, np.int64), k)
    assert counts.dtype == np.int64 and nodes.dtype == np.int64
    assert dists.dtype == np.int8
    assert counts.shape == (len(sources),)
    assert nodes.shape == dists.shape == (int(counts.sum()),)
    ends = np.cumsum(counts)
    for s, end, count in zip(sources, ends, counts):
        got_nodes = nodes[end - count : end]
        got_dists = dists[end - count : end]
        want = oracle_ball(indptr, indices, int(s), k)
        assert got_nodes.tolist() == sorted(want)
        assert got_dists.tolist() == [want[u] for u in sorted(want)]
        bfs = bfs_distances(indptr, indices, int(s), max_depth=k)
        assert np.array_equal(got_nodes, np.flatnonzero(bfs >= 1))
        assert np.array_equal(got_dists, bfs[got_nodes])


@settings(max_examples=40, deadline=None)
@given(n=sizes, d=degrees, seed=seeds, k=radii, raw=raw_sources)
@example(n=50, d=8, seed=1, k=3, raw=[])
@example(n=90, d=6, seed=2, k=4, raw=list(range(89, 19, -1)))
def test_balls_for_matches_independent_bfs(n, d, seed, k, raw):
    h = generate_hgraph(n, d, seed=seed)
    assert_matches_oracle(h.indptr, h.indices, [v % n for v in raw], k)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=8, max_value=64), seed=seeds, k=st.integers(1, 2))
def test_balls_for_on_irregular_symmetric_csr(n, seed, k):
    # The G overlay: symmetric but not regular, so rows have unequal lengths.
    net = build_small_world(n, 4, seed=seed)
    assert_matches_oracle(net.g_indptr, net.g_indices, list(range(n - 1, -1, -1)), k)


def test_balls_for_radius_zero_and_empty_sources():
    h = generate_hgraph(16, 4, seed=0)
    counts, nodes, dists = balls_for(h.indptr, h.indices, np.arange(16), 0)
    assert counts.tolist() == [0] * 16 and nodes.size == 0 and dists.size == 0
    counts, nodes, dists = balls_for(h.indptr, h.indices, np.empty(0, np.int64), 3)
    assert counts.size == nodes.size == dists.size == 0


def test_balls_for_rejects_bad_input():
    h = generate_hgraph(16, 4, seed=0)
    with pytest.raises(ValueError, match="k must be >= 0"):
        balls_for(h.indptr, h.indices, np.arange(4), -1)
    with pytest.raises(ValueError, match="1-D"):
        balls_for(h.indptr, h.indices, np.zeros((2, 2), np.int64), 2)
    for bad in (-1, 16):
        with pytest.raises(ValueError, match=r"node ids in \[0, 16\)"):
            balls_for(h.indptr, h.indices, np.array([3, bad]), 2)
