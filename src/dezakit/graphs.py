"""Dense simple-graph type plus the structural queries and operators.

Vertices are always 0..n-1.  Adjacency is kept as a read-only symmetric
uint8 matrix with zero diagonal; at the supported sizes (n <= 258) dense
storage keeps every operation matrix-shaped and kernel-friendly.

A graph is also its analysis context: a ``per_graph`` function stores its
result on the graph, so each fact is computed once and dropped with the
graph.  Threads need no lock: a race can only compute one value twice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels

#: distance value used for unreachable pairs (never a large finite number)
UNREACHABLE = -1


class Graph:
    """Simple undirected graph given by its 0/1 adjacency matrix."""

    __slots__ = ("n", "adj", "_hash", "_facts")

    def __init__(self, adj) -> None:
        # a private copy, so later writes to the caller's array cannot reach it
        a = np.array(adj, dtype=np.uint8, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        n = int(a.shape[0])
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if a.max(initial=0) > 1:
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(a).any():
            raise ValueError("loops are not allowed")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        a.setflags(write=False)
        self.n = n
        self.adj = a
        self._hash = hash((n, a.tobytes()))
        self._facts: dict = {}

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        a = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            a[u, v] = 1
            a[v, u] = 1
        return cls(a)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, lexicographic."""
        us, vs = np.nonzero(np.triu(self.adj))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1, dtype=np.int64)

    def regular_degree(self) -> int | None:
        """The common degree, or None if the graph is not regular."""
        deg = self.degrees()
        k = int(deg[0])
        return k if bool((deg == k).all()) else None

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return self.edge_count() == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def per_graph(fn):
    """Memoise fn(g) on the graph g.  None is a valid fact; an exception
    is not stored, so the next call raises it afresh."""

    @functools.wraps(fn)
    def fact(g: Graph):
        facts = g._facts
        if fn not in facts:
            facts[fn] = fn(g)
        return facts[fn]

    return fact


@dataclass(frozen=True)
class DistanceData:
    """All-pairs graph distances; UNREACHABLE (-1) marks disconnected pairs."""

    dist: np.ndarray
    diameter: int

    @property
    def connected(self) -> bool:
        return self.diameter != UNREACHABLE


@dataclass(frozen=True)
class StructuralProfile:
    regular_degree: int | None
    connected: bool
    bipartite: bool
    triangle_count: int
    component_count: int


def common_neighbours(g: Graph, u: int, v: int) -> int:
    """|N(u) ∩ N(v)| for distinct vertices; equals entry (u,v) of M^2."""
    if u == v:
        raise ValueError("common_neighbours requires two distinct vertices")
    return int((g.adj[u] & g.adj[v]).sum())


@per_graph
def common_neighbour_matrix(g: Graph) -> np.ndarray:
    """M^2 as a read-only int64 matrix (diagonal holds the degrees)."""
    a = g.adj.astype(np.int64)
    m2 = a @ a
    m2.setflags(write=False)
    return m2


def complement(g: Graph) -> Graph:
    a = 1 - g.adj
    np.fill_diagonal(a, 0)
    return Graph(a)


def meet_graph(n: int, blocks, meet: int) -> Graph:
    """Vertices are the given subsets of range(n), in the given order; two
    are adjacent when they share exactly ``meet`` points."""
    blocks = list(blocks)
    incidence = np.zeros((len(blocks), n), dtype=np.int64)
    for i, block in enumerate(blocks):
        incidence[i, list(block)] = 1
    a = (incidence @ incidence.T == meet).astype(np.uint8)
    # a block meets itself in its own size, which may equal ``meet``
    np.fill_diagonal(a, 0)
    return Graph(a)


def line_graph(g: Graph) -> Graph:
    """Edge-adjacency graph; vertices are g's edges in lexicographic order."""
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is undefined")
    return meet_graph(g.n, edges, 1)


@per_graph
def distance_data(g: Graph) -> DistanceData:
    dist = _kernels.all_pairs_distances(g.adj)
    dist.setflags(write=False)
    if (dist < 0).any():
        return DistanceData(dist, UNREACHABLE)
    return DistanceData(dist, int(dist.max()))


def is_connected(g: Graph) -> bool:
    return distance_data(g).connected


@per_graph
def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum."""
    reach = distance_data(g).dist >= 0
    # a component's least vertex is the first one each of its rows reaches
    roots = np.unique(reach.argmax(axis=1))
    return [np.nonzero(reach[r])[0].tolist() for r in roots]


@per_graph
def bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """2-colouring by the parity of each vertex's distance from the least
    vertex of its component; None when an odd cycle exists."""
    dist = distance_data(g).dist
    root = (dist >= 0).argmax(axis=0)
    colour = dist[root, np.arange(g.n)] % 2
    us, vs = np.nonzero(g.adj)
    if (colour[us] == colour[vs]).any():
        return None
    side0 = [int(v) for v in np.nonzero(colour == 0)[0]]
    side1 = [int(v) for v in np.nonzero(colour == 1)[0]]
    return side0, side1


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def distance_i_graph(g: Graph, i: int) -> Graph:
    """Graph on the same vertices joining exactly the distance-i pairs."""
    dd = distance_data(g)
    if not dd.connected:
        raise ValueError("distance-i graph requires a connected graph")
    if not 1 <= i <= dd.diameter:
        raise ValueError(f"distance {i} out of range 1..{dd.diameter}")
    return Graph((dd.dist == i).astype(np.uint8))


def halved_graphs(g: Graph) -> tuple[Graph, Graph]:
    """Distance-two graphs induced on the two colour classes.

    Defined for connected bipartite graphs; the class containing vertex 0
    comes first and each half keeps its vertices in increasing order.
    """
    dd = distance_data(g)
    if not dd.connected:
        raise ValueError("halved graphs require a connected graph")
    sides = bipartition(g)
    if sides is None:
        raise ValueError("halved graphs require a bipartite graph")
    at2 = dd.dist == 2
    halves = []
    for side in sides:
        idx = np.array(side, dtype=np.intp)
        halves.append(Graph(at2[np.ix_(idx, idx)].astype(np.uint8)))
    return halves[0], halves[1]


def triangle_count(g: Graph) -> int:
    """Number of triangles, via closed-walk counting (trace(M^3)/6)."""
    return _kernels.triangle_count(g.adj, common_neighbour_matrix(g))


def structural_profile(g: Graph) -> StructuralProfile:
    comp = components(g)
    return StructuralProfile(
        regular_degree=g.regular_degree(),
        connected=len(comp) == 1,
        bipartite=is_bipartite(g),
        triangle_count=triangle_count(g),
        component_count=len(comp),
    )


def induced_subgraph(g: Graph, vertices) -> Graph:
    idx = np.array(sorted(vertices), dtype=np.intp)
    return Graph(g.adj[np.ix_(idx, idx)])


def disjoint_union(graphs) -> Graph:
    sizes = [g.n for g in graphs]
    n = sum(sizes)
    a = np.zeros((n, n), dtype=np.uint8)
    off = 0
    for g in graphs:
        a[off : off + g.n, off : off + g.n] = g.adj
        off += g.n
    return Graph(a)


def bipartite_double(g: Graph) -> Graph:
    """Tensor product with K2: vertices u and u', edges u ~ v' iff u ~ v."""
    n = g.n
    a = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    a[:n, n:] = g.adj
    a[n:, :n] = g.adj
    return Graph(a)


def is_disjoint_clique_union(g: Graph) -> tuple[int, int] | None:
    """(count, size) when g is m equal cliques glued disjointly, else None:
    every reachable pair is adjacent and all components have one size."""
    dist = distance_data(g).dist
    sizes = (dist >= 0).sum(axis=1)
    size = int(sizes[0])
    if dist.max() > 1 or (sizes != size).any():
        return None
    return g.n // size, size
