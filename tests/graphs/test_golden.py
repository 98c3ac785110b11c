"""Golden digests of the ``G = H ∪ L`` CSR arrays.

Cold builds and churn patches compute ``B_H(v, k) \\ {v}`` through one
kernel, so the delta-vs-cold-rebuild tests cannot see a bug common to
both.  These sha256 digests of ``(g_indptr, g_indices, g_dist)`` were
captured from the per-node BFS construction the kernel replaced, and pin
every byte of its output: the default ``k``, the E14 ``k`` overrides,
``H`` samples with parallel edges, and a churned resident overlay.
"""

import hashlib

import numpy as np
import pytest

from repro.graphs import ResidentGraph, build_small_world, hgraph_from_cycles
from repro.sim.rng import make_rng


def digest(net):
    h = hashlib.sha256()
    for arr, dtype in (
        (net.g_indptr, np.int64),
        (net.g_indices, np.int64),
        (net.g_dist, np.int8),
    ):
        assert arr.dtype == dtype
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n,d,seed,k,expected",
    [
        (64, 4, 1, None, "29f0fab01b9c7ec7a862edee54d53effde0c51b180f87022cd221f13530d2034"),
        (128, 8, 7, None, "dcde19a1635a6b64d39fb3cbb5ced3e7deff9c9287be275d2aac2e79933e421e"),
        (300, 6, 3, None, "73b5502a4f41f0205fc99c33711c2086e2082e7b7261eb9717119c4207fff149"),
        (1024, 8, 5, None, "4beebcc1082e6c30fe61b16476d94a879b71b03f87cc66a8922f616bdb10b76c"),
        # The E14 lattice-radius overrides.
        (200, 8, 2, 1, "aebe3c68afa41bc27da0f9d044b3e8870038ca5b9a03306784c85ec6a7ee6dcc"),
        (200, 8, 2, 4, "88f92a9dad54a66fb031c0aef94776a376b176235d42dae8808c7fecb64d35be"),
        # Tiny and dense: most edges are parallel, every ball is everything.
        (9, 8, 4, None, "acaa8629b6e164af91cf7380f6d1283fefd2e907ff791903cafdf5aca8b58487"),
    ],
)
def test_cold_build_digest(n, d, seed, k, expected):
    net = build_small_world(n, d, seed=seed, k=k)
    assert net.h.multi_edge_count() > 0
    assert digest(net) == expected


def test_explicit_multi_edge_h_digest():
    # Two identical cycles double every edge of the first one.
    cycles = np.array(
        [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6], [6, 4, 2, 0, 5, 3, 1]]
    )
    net = build_small_world(7, 6, h=hgraph_from_cycles(cycles), k=2)
    assert net.h.multi_edge_count() == 7
    assert digest(net) == (
        "52c567dc24494e09facbe1494a69eb9fb963a990ac6d5cdf5cda87e478d18a0d"
    )


def test_churned_overlay_digest():
    rg = ResidentGraph.sample(512, 6, seed=3)
    rng = make_rng(9)
    recomputed = []
    for leaves, joins in (((5, 200, 255), 2), ((0,), 0), ((), 3), ((17, 18, 100, 101), 4)):
        recomputed.append(rg.apply_delta(list(leaves), joins, rng).recomputed)
    assert recomputed == [160, 36, 104, 225]
    assert digest(rg.snapshot()) == (
        "a001e1dff30ecd2060bff9af5801993f408a4e30507f8ce115b20465ff25f864"
    )
