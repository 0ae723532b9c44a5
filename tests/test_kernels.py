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
from dezakit import _kernels
from dezakit.graphs import common_neighbour_matrix, distance_data


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
    # every distinct value, uncapped: the random graphs reach more than three
    seen = 0
    for g in _random_graphs():
        expected = sorted(_pair_counts(g, None))
        assert _kernels.pair_values(common_neighbour_matrix(g)) == expected
        seen = max(seen, len(expected))
    assert seen > 3


def test_class_values_agree():
    for g in _random_graphs():
        expected = tuple(sorted(_pair_counts(g, adjacent)) for adjacent in (True, False))
        assert _kernels.class_values(g.adj, common_neighbour_matrix(g)) == expected


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
