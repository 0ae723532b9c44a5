"""The counting kernels against the brute-force oracles in conftest.

Every kernel takes a stack of adjacency matrices of one order; a single
graph is a stack of one.  The tests run them on stacks that mix graphs of
one order (connected and not, of different diameters, failing distance-
regularity at different distances and on different counts) and check each
graph's result on its own.
"""

import random
import tracemalloc
from itertools import combinations

import numpy as np

from conftest import (
    brute_common_neighbours,
    brute_distances,
    brute_first_failure,
    brute_intersection_counts,
    brute_triangles,
    random_graph,
    random_regular_graph,
)
from dezakit import _kernels, families
from dezakit.graph6 import parse_graph6
from dezakit.graphs import (
    Graph,
    common_neighbour_matrix,
    components,
    disjoint_union,
    distance_data,
)
from dezakit.report import build_report


def _random_graphs(count=12, max_n=25, seed=97):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(1, max_n), rng.choice((0.2, 0.5, 0.8)))
            for _ in range(count)]


def _by_order(graphs):
    """The graphs grouped into stacks of one order, in order of first sight."""
    stacks: dict[int, list[Graph]] = {}
    for g in graphs:
        stacks.setdefault(g.n, []).append(g)
    return list(stacks.values())


def _adjs(graphs):
    return np.array([g.adj for g in graphs])


def _squares(graphs):
    return np.array([common_neighbour_matrix(g) for g in graphs])


def _dists(graphs):
    return np.array([brute_distances(g) for g in graphs])


def _pair_counts(g, adjacent):
    return {
        brute_common_neighbours(g, u, v)
        for u, v in combinations(range(g.n), 2)
        if adjacent is None or bool(g.adj[u, v]) == adjacent
    }


def _class_pair_counts(g):
    return tuple(sorted(_pair_counts(g, adjacent)) for adjacent in (True, False))


def _relabelled(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return Graph(g.adj[np.ix_(perm, perm)])


#: connected graphs on ten vertices that fail distance-regularity at
#: distance 1 on b, at distance 2 on b and at distance 2 on c (a_i never
#: fails first: b_i + c_i + a_i is the degree of y); found by a seeded
#: search among random 3- and 5-regular graphs
_FAILING_10 = {"ImW{~?feW": (1, "b"), "Ih@[`OI_W": (2, "b"), "ILh?kCDQG": (2, "c")}


def _mixed_order_10():
    """Graphs of order 10: distance-regular of diameters 1, 2 and 5, failing
    at distance 0 (irregular), 1 and 2 on b and 2 on c, disconnected, and
    edgeless."""
    irregular = Graph.from_edges(10, [(v, v + 1) for v in range(9)])  # the path P10
    connected = [
        families.complete(10),
        families.petersen(),
        families.cycle(10),
        irregular,
        *(parse_graph6(line) for line in _FAILING_10),
    ]
    disconnected = [
        disjoint_union([families.cycle(5), families.cycle(5)]),
        disjoint_union([Graph(np.zeros((3, 3), dtype=np.uint8)), families.cycle(7)]),
        Graph(np.zeros((10, 10), dtype=np.uint8)),
    ]
    return connected, disconnected


def test_distances_agree():
    for stack in _by_order(_random_graphs()):
        dists = _kernels.all_pairs_distances(_adjs(stack))
        assert dists.shape == (len(stack), stack[0].n, stack[0].n)
        for g, dist in zip(stack, dists):
            assert np.array_equal(dist, brute_distances(g))


def test_pair_values_agree():
    # the union of class_values' two lists is the off-diagonal value set of
    # M^2, every distinct value, uncapped: the random graphs reach more than three
    seen = 0
    for stack in _by_order(_random_graphs()):
        for g, values in zip(stack, _kernels.class_values(_adjs(stack), _squares(stack))):
            expected = _pair_counts(g, None)
            assert sorted(set().union(*values)) == sorted(expected)
            seen = max(seen, len(expected))
    assert seen > 3


def test_class_values_agree():
    for stack in _by_order(_random_graphs()):
        values = _kernels.class_values(_adjs(stack), _squares(stack))
        assert values == [_class_pair_counts(g) for g in stack]


def test_class_values_and_components_on_empty_selections():
    k1, k5 = families.complete(1), families.complete(5)
    edgeless = Graph(np.zeros((5, 5), dtype=np.uint8))
    isolated = disjoint_union([k1, families.cycle(4), k1, families.complete(2)])
    for g in (k1, edgeless, k5, isolated):
        [values] = _kernels.class_values(g.adj[None], common_neighbour_matrix(g)[None])
        assert values == _class_pair_counts(g)
        # a component is the set of vertices that one vertex reaches
        reach = brute_distances(g) >= 0
        expected = sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})
        assert components(g) == [list(c) for c in expected]
    # one stack: K5 beside the edgeless graph
    stack = [k5, edgeless]
    assert _kernels.class_values(_adjs(stack), _squares(stack)) == [([3], []), ([], [0])]
    # the selections are empty: K1 has no pair, the edgeless graph no
    # adjacent pair and every vertex a root, K5 no non-adjacent pair
    assert _pair_counts(k1, None) == _pair_counts(edgeless, True) == set()
    assert _pair_counts(k5, False) == set()
    assert components(edgeless) == [[v] for v in range(5)]
    assert components(isolated) == [[0], [1, 2, 3, 4], [5], [6, 7]]


def test_triangles_agree():
    for stack in _by_order(_random_graphs()):
        counts = _kernels.triangle_count(_adjs(stack), _squares(stack))
        assert counts == [brute_triangles(g) for g in stack]


def _check_intersection_counts(g, dist, found):
    """found, one graph's intersection_counts entry, against the oracles."""
    d = int(dist.max())
    counts, witness = found
    ok_ref, b_ref, c_ref, a_ref = brute_intersection_counts(g.adj, dist, d)
    assert (witness is None) == ok_ref and (counts is None) != ok_ref
    if ok_ref:
        assert counts == (b_ref.tolist(), c_ref.tolist(), a_ref.tolist())
        return None
    failure = brute_first_failure(g.adj, dist, d)
    assert witness == failure[2]
    return failure[:2]


def test_intersection_counts_agree(petersen, heawood, c7, cube, desargues):
    # seeded random graphs, most of them irregular, beside random regular
    # ones, which pass distance 0 and fail later or not at all
    rng = random.Random(3)
    graphs = [random_graph(rng, rng.randint(2, 16), rng.choice((0.2, 0.4, 0.6, 0.8)))
              for _ in range(300)]
    for _ in range(100):
        n = rng.randint(4, 16)
        k = rng.choice([k for k in range(2, n - 1) if n * k % 2 == 0])
        graphs.append(random_regular_graph(rng, n, k))
    graphs += [petersen, heawood, c7, cube, desargues]
    connected = [g for g in graphs if (brute_distances(g) >= 0).all()]
    failed = []
    for stack in _by_order(connected):
        dists = _dists(stack)
        for g, dist, found in zip(stack, dists,
                                  _kernels.intersection_counts(_adjs(stack), dists)):
            failed.append(_check_intersection_counts(g, dist, found))
    assert len(connected) > 250
    assert {None, (0, "b"), (1, "b")} <= set(failed)


def test_kernels_agree_on_a_mixed_stack_of_one_order():
    connected, disconnected = _mixed_order_10()
    stack = connected + disconnected
    dists = _kernels.all_pairs_distances(_adjs(stack))
    for g, dist in zip(stack, dists):
        assert np.array_equal(dist, brute_distances(g))
    assert _kernels.class_values(_adjs(stack), _squares(stack)) == [
        _class_pair_counts(g) for g in stack]
    assert _kernels.triangle_count(_adjs(stack), _squares(stack)) == [
        brute_triangles(g) for g in stack]
    # the connected graphs: diameters 1, 2 and 5 beside 9 (the path) and 2-3
    dists = _dists(connected)
    failures = [
        _check_intersection_counts(g, dist, found)
        for g, dist, found in zip(connected, dists,
                                  _kernels.intersection_counts(_adjs(connected), dists))
    ]
    assert failures == [None, None, None, (0, "b"), *_FAILING_10.values()]
    assert sorted({int(dist.max()) for dist in dists}) == [1, 2, 3, 5, 9]


def test_each_witness_is_its_graphs_own():
    # seeded relabellings of graphs failing at different distances and on
    # different counts, with distance-regular graphs between them: each
    # graph's witness in the stack is its witness alone, and the oracle's
    connected, _ = _mixed_order_10()
    rng = random.Random(8)
    stack = [_relabelled(rng.choice(connected), rng) for _ in range(40)]
    dists = _dists(stack)
    together = _kernels.intersection_counts(_adjs(stack), dists)
    failed = set()
    for g, dist, found in zip(stack, dists, together):
        assert found == _kernels.intersection_counts(g.adj[None], dist[None])[0]
        failed.add(_check_intersection_counts(g, dist, found))
    assert failed == {None, (0, "b"), *_FAILING_10.values()}


def test_distances_match_floyd_warshall():
    rng = random.Random(55)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 20), 0.3)
        assert np.array_equal(distance_data(g).dist, brute_distances(g))


def test_a_report_at_the_cap_peaks_at_a_few_square_matrices():
    # build_report on Paley(257) and J(12,3) (n = 257 and 220) holds the
    # graph's facts, a few n x n matrices, beside one kernel's temporaries:
    # a few int64 n x n matrices, 0.5 MB each at n = 257.  16 MiB leaves room
    # for both; a kernel that gathered a row of n distances for each pair of
    # a distance level would hold close to n^3 entries, about 50 MB on
    # Paley(257).
    for g in (families.paley(257), families.johnson(12, 3)):
        tracemalloc.start()
        try:
            build_report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
