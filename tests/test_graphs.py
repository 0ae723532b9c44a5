"""Graph type, structural queries, and the graph operators."""

import functools
import gc
import random
import weakref

import numpy as np
import pytest

from conftest import (
    brute_bipartition,
    brute_common_neighbours,
    brute_distances,
    brute_triangles,
    random_graph,
    random_regular_graph,
)
from dezakit import deza, families, graphs as graphs_mod
from dezakit.charpoly import char_poly
from dezakit.deza import children
from dezakit.distreg import intersection_numbers
from dezakit.graphs import (
    UNREACHABLE,
    DistanceData,
    Graph,
    batched,
    bipartite_double,
    bipartition,
    common_neighbour_matrix,
    common_neighbours,
    complement,
    components,
    degree_vector,
    disjoint_union,
    distance_data,
    distance_i_graph,
    fill_facts,
    graphs_from_stack,
    halved_graphs,
    induced_subgraph,
    is_bipartite,
    is_disjoint_clique_union,
    line_graph,
    meet_graph,
    per_graph,
    structural_profile,
    triangle_count,
)
from dezakit.spectra import exact_spectrum


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Graph([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="loops"):
        Graph([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        Graph(np.zeros((2, 3), dtype=np.uint8))
    # every entry that is not exactly 0 or 1 is refused, also where the uint8
    # cast would truncate it (0.5, 1.7) or wrap it (257) to 0 or 1
    for entry in (2, -1, 0.5, 1.7, np.int64(257)):
        with pytest.raises(ValueError, match="0 or 1"):
            Graph([[0, entry], [entry, 0]])
    with pytest.raises(ValueError, match="0 or 1"):
        Graph(np.array([[0, 2], [2, 0]], dtype=np.uint8))
    # exact 0 and 1 are accepted in any dtype
    for dtype in (bool, np.uint8, np.int64, float, object):
        assert Graph(np.array([[0, 1], [1, 0]], dtype=dtype)) == families.complete(2)
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(np.zeros((0, 0), dtype=np.uint8))


def test_adjacency_read_only():
    g = families.complete(3)
    with pytest.raises(ValueError):
        g.adj[0, 1] = 0


def test_graph_copies_its_input():
    base = families.cycle(6).adj.copy()
    g = Graph(base[:, :])
    fingerprint, dd = hash(g), distance_data(g)
    base[0, 1] = base[1, 0] = 0
    # the graph, its hash and its memoised facts ignore the write ...
    assert g.adj[0, 1] == 1 and g == families.cycle(6)
    assert hash(g) == fingerprint == hash(Graph(g.adj))
    assert distance_data(g) is dd and dd.diameter == 3
    # ... and the caller's array stays writable
    a = np.zeros((3, 3), dtype=np.uint8)
    Graph(a)
    a[0, 1] = a[1, 0] = 1
    assert Graph(a).edge_count() == 1


def test_graphs_from_a_stack_are_the_graphs_of_its_rows():
    rng = random.Random(41)
    stack = np.array([random_graph(rng, 9).adj for _ in range(6)])
    rows = [Graph(row) for row in stack]
    graphs = graphs_from_stack(stack)
    assert graphs == rows and [hash(g) for g in graphs] == [hash(g) for g in rows]
    for g in graphs:
        with pytest.raises(ValueError, match="read-only"):
            g.adj[0, 1] ^= 1
    # each graph owns a copy of its row, which later writes to the stack miss
    stack[:] = 0
    assert graphs == rows
    assert graphs_from_stack(rows[0].adj[None].astype(bool)) == rows[:1]

    # one bad member refuses the stack, with Graph's message for it
    loop, asymmetric, two = (np.array([g.adj for g in rows]) for _ in range(3))
    loop[2, 4, 4] = 1
    asymmetric[5, 0, 8] ^= 1
    two[1, 3, 6] = two[1, 6, 3] = 2
    for bad, message in ((loop, "loops"), (asymmetric, "symmetric"), (two, "0 or 1")):
        with pytest.raises(ValueError, match=message):
            graphs_from_stack(bad)
    with pytest.raises(ValueError, match="square"):
        graphs_from_stack(np.zeros((2, 3, 4), dtype=np.uint8))


def test_per_graph_memoises_on_the_graph():
    calls = []

    @per_graph
    def fact(g):
        calls.append(g)
        if g.n == 1:
            raise ValueError("no fact for K1")
        return None

    g = families.cycle(4)
    # None is a fact like any other: computed once
    assert fact(g) is None and fact(g) is None and len(calls) == 1
    # an equal graph is another graph: nothing is shared by value
    assert fact(Graph(g.adj)) is None and len(calls) == 2
    # an exception is not stored
    k1 = Graph(np.zeros((1, 1), dtype=np.uint8))
    for _ in range(2):
        with pytest.raises(ValueError, match="K1"):
            fact(k1)
    assert len(calls) == 4



def test_fill_facts_stores_what_the_fact_would_compute():
    calls, batches = [], []

    @per_graph
    def fact(g):
        calls.append(g)
        return g.n

    # a wrapper made with functools.wraps (as a tracer makes) fills the
    # same memo as the fact it wraps
    @functools.wraps(fact)
    def wrapped(g):
        return fact(g)

    held, a, b = families.cycle(4), families.cycle(5), families.petersen()
    assert fact(held) == 4 and len(calls) == 1

    def batch(graphs):
        batches.append(graphs)
        return [10 * g.n for g in graphs]

    # only the graphs that lack the fact are computed, in one call
    assert fill_facts(wrapped, [held, a, b], batch) == [4, 50, 100]
    assert len(batches) == 1 and [id(g) for g in batches[0]] == [id(a), id(b)]
    assert fact(a) == 50 and fact(b) == 100 and len(calls) == 1

    # a fact declared by its batch: one graph's fact is the batch of one,
    # and a fill, through a wrapper too, computes the graphs lacking it
    @batched
    def declared(graphs):
        batches.append(graphs)
        return [10 * g.n for g in graphs]

    assert declared(held) == 40 and [id(g) for g in batches[1]] == [id(held)]
    assert functools.wraps(declared)(declared).fill([held, a, held, b]) == [40, 50, 40, 100]
    assert [id(g) for g in batches[2]] == [id(a), id(b)]
    assert declared(a) == 50 and declared.fill([b]) == [100] and len(batches) == 4
    assert batches[3] == []

def test_facts_are_dropped_with_the_graph():
    g = families.paley(13)
    m2 = weakref.ref(common_neighbour_matrix(g))
    # an SRG with lambda != mu is its own child: a cycle through its facts
    assert g in (children(g).child_a, children(g).child_b)
    assert common_neighbour_matrix(g) is m2()
    del g
    gc.collect()
    assert m2() is None


def test_from_edges_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(3, [(0, 0)])


def test_common_neighbours_examples(petersen):
    k4 = families.complete(4)
    assert all(common_neighbours(k4, u, v) == 2 for u in range(4) for v in range(4) if u != v)
    c5 = families.cycle(5)
    assert common_neighbours(c5, 0, 1) == 0
    # Petersen: every non-adjacent pair has exactly one common neighbour
    for u in range(10):
        for v in range(u + 1, 10):
            if not petersen.has_edge(u, v):
                assert common_neighbours(petersen, u, v) == 1
                assert brute_common_neighbours(petersen, u, v) == 1
    with pytest.raises(ValueError):
        common_neighbours(k4, 2, 2)


def test_common_neighbours_match_matrix_square():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 15))
        m2 = g.adj.astype(np.int64) @ g.adj.astype(np.int64)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert common_neighbours(g, u, v) == m2[u, v]


def test_complement():
    assert complement(families.complete(4)).edge_count() == 0
    c5 = families.cycle(5)
    assert complement(c5) == Graph(complement(complement(complement(c5))).adj)
    # the pentagon is self-complementary up to relabelling: same spectrum
    assert exact_spectrum(complement(c5)) == exact_spectrum(c5)
    octa = families.complete_multipartite([2, 2, 2])
    assert is_disjoint_clique_union(complement(octa)) == (3, 2)


def test_complement_involution_property():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 20))
        assert complement(complement(g)) == g


def test_meet_graph():
    # the empty block meets everything, itself included, in 0 points
    assert meet_graph(3, [(), (0,), (1, 2)], 0) == families.complete(3)
    # (0, 1) meets itself in 2 points too; only the pair is joined
    g = meet_graph(3, [(0, 1), (0, 1, 2), (2,)], 2)
    assert g.edges() == [(0, 1)]
    assert meet_graph(4, [(0, 1), (2, 3)], 1).is_edgeless()


def test_line_graph(petersen):
    octa = families.complete_multipartite([2, 2, 2])
    lg = line_graph(octa)
    assert lg.n == octa.edge_count() == 12
    assert lg.regular_degree() == 6
    lp = line_graph(petersen)
    assert lp.n == 15 and lp.regular_degree() == 4
    assert line_graph(families.complete(2)).n == 1
    with pytest.raises(ValueError):
        line_graph(Graph(np.zeros((3, 3), dtype=np.uint8)))


def test_line_graph_degree_formula():
    rng = random.Random(3)
    g = random_graph(rng, 9, 0.4)
    lg = line_graph(g)
    deg = g.degrees()
    for idx, (u, v) in enumerate(g.edges()):
        assert lg.degrees()[idx] == deg[u] + deg[v] - 2


def test_distance_data(heawood):
    k4 = families.complete(4)
    dd = distance_data(k4)
    assert dd.diameter == 1 and dd.connected
    assert distance_data(heawood).diameter == 3
    two_k3 = families.disjoint_cliques(2, 3)
    dd = distance_data(two_k3)
    assert not dd.connected and dd.diameter == UNREACHABLE
    assert dd.dist[0, 5] == UNREACHABLE


def test_distances_against_floyd_warshall():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 18), 0.3)
        assert np.array_equal(distance_data(g).dist, brute_distances(g))


def test_distance_i_graph(petersen, icosahedron):
    c6 = families.cycle(6)
    assert is_disjoint_clique_union(distance_i_graph(c6, 3)) == (3, 2)
    assert is_disjoint_clique_union(distance_i_graph(icosahedron, 3)) == (6, 2)
    d2 = distance_i_graph(petersen, 2)
    assert d2 == complement(petersen) and d2.regular_degree() == 6
    with pytest.raises(ValueError):
        distance_i_graph(c6, 4)
    with pytest.raises(ValueError):
        distance_i_graph(families.disjoint_cliques(2, 3), 1)


def test_halved_graphs(heawood):
    c6 = families.cycle(6)
    h1, h2 = halved_graphs(c6)
    assert h1.is_complete() and h1.n == 3
    assert h2.is_complete() and h2.n == 3
    h1, h2 = halved_graphs(families.complete_multipartite([3, 3]))
    assert h1.is_complete() and h2.is_complete()
    h1, h2 = halved_graphs(heawood)
    assert h1.n == h2.n == 7 and h1.is_complete() and h2.is_complete()
    with pytest.raises(ValueError, match="bipartite"):
        halved_graphs(families.cycle(5))
    with pytest.raises(ValueError, match="connected"):
        halved_graphs(families.disjoint_cliques(2, 2))


def test_structural_profile(petersen, icosahedron):
    prof = structural_profile(petersen)
    assert prof.regular_degree == 3 and prof.triangle_count == 0
    prof = structural_profile(icosahedron)
    assert prof.regular_degree == 5 and prof.triangle_count == 20
    prof = structural_profile(families.complete(4))
    assert prof.triangle_count == 4 and not prof.bipartite
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert structural_profile(star).regular_degree is None


def test_triangle_count_vs_enumeration():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 22))
        assert triangle_count(g) == brute_triangles(g)


def test_components_and_bipartite():
    g = disjoint_union([families.cycle(4), families.complete(3)])
    assert components(g) == [[0, 1, 2, 3], [4, 5, 6]]
    assert not is_bipartite(g)
    assert is_bipartite(families.cycle(8))


def test_bipartition_matches_bfs():
    c6, c8, c5 = (families.cycle(n) for n in (6, 8, 5))
    assert bipartition(disjoint_union([c6, c8])) == (
        [0, 2, 4, 6, 8, 10, 12], [1, 3, 5, 7, 9, 11, 13]
    )
    assert bipartition(disjoint_union([c6, c5])) is None
    rng = random.Random(23)
    graphs = [disjoint_union([c6, c8]), disjoint_union([c6, c5]), families.complete(1)]
    graphs += [random_graph(rng, rng.randint(1, 16), rng.choice((0.1, 0.2, 0.4)))
               for _ in range(200)]
    outcomes = [bipartition(g) for g in graphs]
    assert outcomes == [brute_bipartition(g) for g in graphs]
    # both outcomes occur, on connected and on disconnected inputs
    assert any(sides is None for sides in outcomes)
    assert any(sides is not None and len(components(g)) > 1
               for g, sides in zip(graphs, outcomes))


def _same(a, b) -> bool:
    """Equal facts: arrays (also a DistanceData's) by dtype and entries."""
    if isinstance(a, DistanceData):
        return a.diameter == b.diameter and _same(a.dist, b.dist)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_structural_fillers_match_the_oracles(monkeypatch):
    # 300 graphs of orders 1 to 12, so each filler runs stacks of many graphs
    # of one order, connected and not
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randint(1, 12), rng.choice((0.1, 0.3, 0.6)))
              for _ in range(300)]
    graphs.append(disjoint_union([families.cycle(4), families.cycle(8)]))
    # regular graphs of the same orders, some of them Deza graphs
    graphs += [random_regular_graph(rng, n, k) for n in range(5, 13) for k in (2, 3, 4)
               if n * k % 2 == 0 and k < n - 1 for _ in range(3)]
    degrees = degree_vector.fill(graphs)
    squares = common_neighbour_matrix.fill(graphs)
    data = distance_data.fill(graphs)
    triangles = triangle_count.fill(graphs)
    for g, deg, m2, dd, tri in zip(graphs, degrees, squares, data, triangles):
        a = g.adj.astype(np.int64)
        assert np.array_equal(deg, a.sum(axis=1)) and np.array_equal(m2, a @ a)
        assert np.array_equal(dd.dist, brute_distances(g))
        assert dd.connected == (brute_distances(g) >= 0).all()
        assert tri == brute_triangles(g)
        # each graph owns its read-only arrays: none keeps its stack alive
        for fact in (deg, m2, dd.dist):
            assert fact.flags.owndata and not fact.flags.writeable
    assert {dd.connected for dd in data} == {True, False}

    # every batched fact on the graphs it is defined for: a fill equals the
    # fact of a fresh copy of each graph, and stores it on the graph
    connected = [g for g, dd in zip(graphs, data) if dd.connected]
    may_be_deza = [g for g in graphs if deza._may_be_deza(g)]
    facts = [(degree_vector, graphs), (common_neighbour_matrix, graphs),
             (distance_data, graphs), (triangle_count, graphs),
             (deza._class_values, may_be_deza), (intersection_numbers, connected),
             (char_poly, graphs)]
    assert len({g.n for g in may_be_deza}) >= 8 and len(may_be_deza) > 50
    assert len({deza.detect_deza(g) is None for g in may_be_deza}) == 2
    for fact, members in facts:
        values = fact.fill(members)
        assert all(fact.memo_key in g._facts for g in members)
        assert all(_same(value, fact(Graph(g.adj))) for g, value in zip(members, values))
    # a second fill computes none of them again: each batch is handed no graph
    lacking = []
    fill = graphs_mod.fill_facts
    monkeypatch.setattr(graphs_mod, "fill_facts", lambda fact, gs, batch: fill(
        fact, gs, lambda rest: lacking.append(rest) or batch(rest)))
    for fact, members in facts:
        assert all(a is b for a, b in zip(fact.fill(members), fact.fill(members)))
    assert len(lacking) >= 2 * len(facts) and not any(lacking)


def _clique_union_by_components(g):
    """The component-by-component definition: every component complete,
    all of one size."""
    comp = components(g)
    size = len(comp[0])
    for c in comp:
        if len(c) != size or not induced_subgraph(g, c).is_complete():
            return None
    return len(comp), size


def test_disjoint_clique_union_matches_components():
    rng = random.Random(31)
    graphs = [families.complete(1), Graph(np.zeros((5, 5), dtype=np.uint8))]
    for _ in range(150):
        # sparse random graphs: isolated vertices and many components
        graphs.append(random_graph(rng, rng.randint(1, 14), rng.choice((0.05, 0.15, 0.5))))
        # clique unions, equal-sized or not, some with one pair toggled
        sizes = [rng.randint(1, 4)] * rng.randint(1, 4)
        if rng.random() < 0.3:
            sizes.append(rng.randint(1, 4))
        g = disjoint_union([families.complete(s) for s in sizes])
        if rng.random() < 0.3 and g.n > 1:
            u, v = rng.sample(range(g.n), 2)
            a = g.adj.copy()
            a[u, v] = a[v, u] = 1 - a[u, v]
            g = Graph(a)
        graphs.append(g)
    outcomes = [is_disjoint_clique_union(g) for g in graphs]
    assert outcomes == [_clique_union_by_components(g) for g in graphs]
    assert sum(shape is not None for shape in outcomes) > 50
    assert sum(shape is None for shape in outcomes) > 50


def test_bipartite_double(petersen):
    desargues = bipartite_double(petersen)
    assert desargues.n == 20 and desargues.regular_degree() == 3
    assert is_bipartite(desargues)
    assert distance_data(desargues).diameter == 5
    # distance 2 in the double means a common neighbour in Petersen, which
    # happens exactly for non-adjacent pairs: the halves are the complement
    halves = halved_graphs(desargues)
    assert exact_spectrum(halves[0]) == exact_spectrum(complement(petersen))
    assert exact_spectrum(halves[1]) == exact_spectrum(complement(petersen))
