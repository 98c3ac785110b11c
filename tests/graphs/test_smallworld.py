"""Unit tests for the G = H ∪ L small-world overlay."""

import numpy as np
import pytest

from repro.graphs import build_small_world, lattice_parameter
from repro.graphs.balls import bfs_distances


class TestLatticeParameter:
    @pytest.mark.parametrize("d,k", [(6, 2), (8, 3), (9, 3), (10, 4), (12, 4)])
    def test_ceil_d_over_3(self, d, k):
        assert lattice_parameter(d) == k


class TestConstruction:
    def test_k_default(self, net_small):
        assert net_small.k == 3

    def test_g_neighbors_are_k_ball(self, net_small):
        for v in (0, 17, 100):
            dist = bfs_distances(
                net_small.h.indptr, net_small.h.indices, v, max_depth=net_small.k
            )
            expected = set(np.flatnonzero(dist >= 1).tolist())
            assert set(net_small.g_neighbors(v).tolist()) == expected

    def test_g_dist_tags_match_h_distance(self, net_small):
        v = 42
        dist = bfs_distances(
            net_small.h.indptr, net_small.h.indices, v, max_depth=net_small.k
        )
        for u, tag in zip(net_small.g_neighbors(v), net_small.g_neighbor_dists(v)):
            assert dist[u] == tag

    def test_h_edges_subset_of_g(self, net_small):
        for v in (3, 64):
            for u in net_small.h_neighbors(v):
                assert net_small.is_g_edge(v, int(u))

    def test_g_symmetric(self, net_small):
        for v in (0, 9, 55):
            for u in net_small.g_neighbors(v):
                assert net_small.is_g_edge(int(u), v)

    def test_no_self_loops(self, net_small):
        for v in range(net_small.n):
            assert v not in net_small.g_neighbors(v)

    def test_custom_k_override(self):
        net = build_small_world(64, 8, seed=1, k=1)
        # k=1: G collapses to the simple version of H.
        for v in (0, 10):
            assert set(net.g_neighbors(v).tolist()) == set(
                net.h_neighbors(v).tolist()
            )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_small_world(64, 8, seed=1, k=0)

    def test_max_degree_bounded_by_observation2(self, net_small):
        # |B_G(v, 1)| < (d-1)^{k+1} (Observation 2).
        bound = (net_small.d - 1) ** (net_small.k + 1)
        assert net_small.max_g_degree() < bound

    def test_deterministic(self):
        a = build_small_world(64, 6, seed=5)
        b = build_small_world(64, 6, seed=5)
        assert np.array_equal(a.g_indices, b.g_indices)
        assert np.array_equal(a.g_dist, b.g_dist)


class TestSmallWorldProperty:
    def test_clustering_g_exceeds_h(self, net_small):
        from repro.graphs import average_clustering

        ch = average_clustering(net_small.h.indptr, net_small.h.indices, sample=None)
        cg = average_clustering(net_small.g_indptr, net_small.g_indices, sample=None)
        assert cg > 3 * ch  # the L edges are what make it small-world

    def test_to_networkx_simple(self, net_small):
        g = net_small.to_networkx()
        assert g.number_of_nodes() == net_small.n
        assert g.number_of_edges() == net_small.g_indices.shape[0] // 2


class TestValidate:
    """The three spot checks on the 16-node sample, one corruption each."""

    @staticmethod
    def corrupt(net, **arrays):
        from dataclasses import replace

        return replace(net, **arrays)

    def test_clean_network_passes(self, net_small):
        net_small.validate()

    def test_self_loop(self, net_small):
        indices = net_small.g_indices.copy()
        indices[net_small.g_indptr[0]] = 0  # node 0 is in the sample
        with pytest.raises(ValueError, match="self-loop in G adjacency"):
            self.corrupt(net_small, g_indices=indices).validate()

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_distance_outside_range(self, net_small, bad):
        dist = net_small.g_dist.copy()
        dist[net_small.g_indptr[net_small.n - 1]] = bad  # last node is sampled
        with pytest.raises(ValueError, match=r"G neighbor distance outside \[1, k\]"):
            self.corrupt(net_small, g_dist=dist).validate()

    def test_asymmetric_adjacency(self, net_small):
        # Drop 0 from the row of 0's first neighbor u: the edge (0, u)
        # stays, its reverse is gone, and every row stays sorted.
        u = int(net_small.g_neighbors(0)[0])
        row = net_small.g_indptr[u]
        slot = row + int(np.searchsorted(net_small.g_neighbors(u), 0))
        assert net_small.g_indices[slot] == 0
        indptr = net_small.g_indptr.copy()
        indptr[u + 1 :] -= 1
        net = self.corrupt(
            net_small,
            g_indptr=indptr,
            g_indices=np.delete(net_small.g_indices, slot),
            g_dist=np.delete(net_small.g_dist, slot),
        )
        with pytest.raises(ValueError, match="G adjacency is not symmetric"):
            net.validate()

    def test_first_failing_node_decides_the_message(self, net_small):
        # Node 0 has a bad distance, a later sampled node a self-loop: the
        # checks run node by node, so node 0's failure is reported.
        dist = net_small.g_dist.copy()
        dist[net_small.g_indptr[0]] = 0
        indices = net_small.g_indices.copy()
        last = net_small.n - 1
        indices[net_small.g_indptr[last]] = last
        net = self.corrupt(net_small, g_indices=indices, g_dist=dist)
        with pytest.raises(ValueError, match="distance outside"):
            net.validate()
