"""The counting kernels against the brute-force oracles in conftest."""

import random
from itertools import combinations

import numpy as np

from conftest import (
    brute_common_neighbours,
    brute_distances,
    brute_intersection_counts,
    brute_triangles,
    random_graph,
)
from dezakit import _kernels, families
from dezakit.graphs import Graph, common_neighbour_matrix, components, disjoint_union, distance_data


def _random_graphs(count=12, max_n=25, seed=97):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(1, max_n), rng.choice((0.2, 0.5, 0.8)))
            for _ in range(count)]


def _pair_counts(g, adjacent):
    return {
        brute_common_neighbours(g, u, v)
        for u, v in combinations(range(g.n), 2)
        if adjacent is None or bool(g.adj[u, v]) == adjacent
    }


def _profile(g, dist, x, y):
    i = dist[x, y]
    nb = g.adj[y].astype(bool)
    return [int(((dist[x] == i + s) & nb).sum()) for s in (-1, 0, 1)]


def test_distances_agree():
    for g in _random_graphs():
        assert np.array_equal(_kernels.all_pairs_distances(g.adj), brute_distances(g))


def test_pair_values_agree():
    # the union of class_values' two lists is the off-diagonal value set of
    # M^2, every distinct value, uncapped: the random graphs reach more than three
    seen = 0
    for g in _random_graphs():
        expected = _pair_counts(g, None)
        values = _kernels.class_values(g.adj, common_neighbour_matrix(g))
        assert sorted(set().union(*values)) == sorted(expected)
        seen = max(seen, len(expected))
    assert seen > 3


def test_class_values_agree():
    for g in _random_graphs():
        expected = tuple(sorted(_pair_counts(g, adjacent)) for adjacent in (True, False))
        assert _kernels.class_values(g.adj, common_neighbour_matrix(g)) == expected


def test_class_values_and_components_on_empty_selections():
    k1, k5 = families.complete(1), families.complete(5)
    edgeless = Graph(np.zeros((5, 5), dtype=np.uint8))
    isolated = disjoint_union([k1, families.cycle(4), k1, families.complete(2)])
    for g in (k1, edgeless, k5, isolated):
        expected = tuple(sorted(_pair_counts(g, adjacent)) for adjacent in (True, False))
        assert _kernels.class_values(g.adj, common_neighbour_matrix(g)) == expected
        # a component is the set of vertices that one vertex reaches
        reach = brute_distances(g) >= 0
        expected = sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})
        assert components(g) == [list(c) for c in expected]
    # the selections are empty: K1 has no pair, the edgeless graph no
    # adjacent pair and every vertex a root, K5 no non-adjacent pair
    assert _pair_counts(k1, None) == _pair_counts(edgeless, True) == set()
    assert _pair_counts(k5, False) == set()
    assert components(edgeless) == [[v] for v in range(5)]
    assert components(isolated) == [[0], [1, 2, 3, 4], [5], [6, 7]]


def test_triangles_agree():
    for g in _random_graphs():
        assert _kernels.triangle_count(g.adj, common_neighbour_matrix(g)) == brute_triangles(g)


def test_intersection_counts_agree(petersen, heawood, c7, cube, desargues):
    rng = random.Random(3)
    graphs = [random_graph(rng, rng.randint(2, 15), 0.6) for _ in range(10)]
    graphs += [petersen, heawood, c7, cube, desargues]
    for g in graphs:
        dist = _kernels.all_pairs_distances(g.adj)
        if (dist < 0).any():
            continue
        d = int(dist.max())
        counts, witness = _kernels.intersection_counts(g.adj, dist, d)
        ok_ref, b_ref, c_ref, a_ref = brute_intersection_counts(g.adj, dist, d)
        assert (witness is None) == ok_ref and (counts is None) != ok_ref
        if ok_ref:
            assert counts == (b_ref.tolist(), c_ref.tolist(), a_ref.tolist())
        else:
            # the reported pair's counts differ from the first pair's at
            # the same distance
            x, y = witness
            first = np.argwhere(dist == dist[x, y])[0]
            assert _profile(g, dist, x, y) != _profile(g, dist, *first)


def test_distances_match_floyd_warshall():
    rng = random.Random(55)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 20), 0.3)
        assert np.array_equal(distance_data(g).dist, brute_distances(g))
