"""Dense simple-graph type plus the structural queries and operators.

Vertices are always 0..n-1.  Adjacency is kept as a read-only symmetric
uint8 matrix with zero diagonal; at the supported sizes (n <= 258) dense
storage keeps every operation matrix-shaped and kernel-friendly.

A stack of adjacency matrices of one order becomes graphs by
graphs_from_stack, which checks the whole stack at once as Graph checks
one matrix.

A graph is also its analysis context: a ``per_graph`` function stores its
result on the graph, so each fact is computed once and dropped with the
graph.  Threads need no lock: a race can only compute one value twice.

A fact declared by its batch (``batched``) is computed for many graphs at
once: ``fact.fill(graphs)`` stores it on the graphs that lack it by one
batch call, and ``fact(g)`` is the batch of one.  The structural facts here
-- the degree vector, M^2, the distances and the triangle count -- each run
once per stack of graphs of one order (``by_order``), and each graph keeps
its own copy of its row of a stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

#: distance value used for unreachable pairs (never a large finite number)
UNREACHABLE = -1


class Graph:
    """Simple undirected graph given by its 0/1 adjacency matrix."""

    __slots__ = ("n", "adj", "_hash", "_facts")

    def __init__(self, adj) -> None:
        a = np.asarray(adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        self._adopt(a.shape[0], _checked_bytes(a))

    def _adopt(self, n: int, data: bytes) -> None:
        """Take the checked bytes of an n x n adjacency matrix as the graph's
        own read-only adjacency, which the caller's array cannot reach."""
        self.n = n
        self.adj = np.ndarray((n, n), np.uint8, data)
        self._hash = hash((n, data))
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
        return int(self.degrees().sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def degrees(self) -> np.ndarray:
        """The read-only int64 degree vector, computed once per graph."""
        return degree_vector(self)

    def regular_degree(self) -> int | None:
        """The common degree, or None if the graph is not regular."""
        return _regular_degree(self)

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


#: the dtypes whose cast to uint8 keeps every entry, so that the entries can
#: be tested on the bytes of the cast
_BYTE_DTYPES = (np.dtype(np.uint8), np.dtype(bool))


def _checked_bytes(a: np.ndarray) -> bytes:
    """The bytes of a, an n x n matrix or a stack of them, cast to uint8,
    once every matrix passes a graph's checks: n >= 1, entries 0 or 1, no
    loop and symmetry.  The tests after the cast compare bytes, which costs
    less at the supported sizes than a numpy reduction per test."""
    n = a.shape[-1]
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    # the cast would truncate 0.5 to 0 and wrap 257 to 1, so other dtypes
    # are tested before it
    if a.dtype not in _BYTE_DTYPES and ((a != 0) & (a != 1)).any():
        raise ValueError("adjacency entries must be 0 or 1")
    # a private copy, so later writes to the caller's array cannot reach it
    a = a.astype(np.uint8, order="C")
    data = a.tobytes()
    if data.translate(None, b"\0\1"):
        raise ValueError("adjacency entries must be 0 or 1")
    if a.diagonal(0, -2, -1).tobytes() != bytes(a.size // n):
        raise ValueError("loops are not allowed")
    if data != a.swapaxes(-2, -1).tobytes():
        raise ValueError("adjacency matrix must be symmetric")
    return data


def graphs_from_stack(stack) -> list[Graph]:
    """The graphs of a k x n x n stack of adjacency matrices, in order.  The
    stack is checked as Graph(row) checks each row, once for all rows, and
    each graph owns a copy of its row."""
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("adjacency matrices must be square")
    n = a.shape[1]
    data = _checked_bytes(a)
    size = n * n
    out = []
    for start in range(0, len(data), size):
        g = Graph.__new__(Graph)
        g._adopt(n, data[start : start + size])
        out.append(g)
    return out


def per_graph(fn):
    """Memoise fn(g) on the graph g.  None is a valid fact; an exception
    is not stored, so the next call raises it afresh."""

    @functools.wraps(fn)
    def fact(g: Graph):
        facts = g._facts
        if fn not in facts:
            facts[fn] = fn(g)
        return facts[fn]

    # the memo's key for fill_facts; functools.wraps copies it onto any
    # wrapper of the fact, where __wrapped__ would name the fact itself
    fact.memo_key = fn
    return fact


def fill_facts(fact, graphs, compute) -> list:
    """The per_graph fact of each graph, in order.  The graphs that lack it
    get it from one call compute(lacking), which returns their values in
    order, and store it: a batch computes the fact for many graphs at once,
    and the memo serves each later call."""
    key = fact.memo_key
    lacking = [g for g in graphs if key not in g._facts]
    for g, value in zip(lacking, compute(lacking), strict=True):
        g._facts[key] = value
    return [g._facts[key] for g in graphs]


def batched(batch):
    """The per_graph fact that batch(graphs) computes, one value per graph
    in order: fact(g) is batch([g])[0], and fact.fill(graphs) is each
    graph's fact, in order, stored on the graphs that lack it by one call
    batch(lacking) (fill_facts)."""
    fact = per_graph(functools.wraps(batch)(lambda g: batch([g])[0]))
    fact.fill = lambda graphs: fill_facts(fact, graphs, batch)
    return fact


#: a stacked pass holds at most this many matrix entries (8 MB of int64), so
#: a long stream of one shape runs as several passes
STACK_ELEMENTS = 1 << 20


def stacked(run, rows, shape) -> list:
    """run(stack) on each stack of rows, with the results put back in the
    order of rows: the rows whose matrices have one shape(row) run together
    in order, split into stacks of at most STACK_ELEMENTS entries (one row
    at least), so a pass's memory is bounded whatever the input."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(rows):
        by_shape.setdefault(shape(row), []).append(i)
    out: list = [None] * len(rows)
    for dims, members in by_shape.items():
        per = max(STACK_ELEMENTS // math.prod(dims), 1)
        for start in range(0, len(members), per):
            block = members[start : start + per]
            for i, value in zip(block, run([rows[i] for i in block])):
                out[i] = value
    return out


def by_order(run, graphs) -> list:
    """run(graphs) on stacks of the graphs, one order per stack, with the
    results put back in order.  A graph counts n^3 entries, the multiply-adds
    of one product of its n x n matrices (all_pairs_distances runs one per
    level, intersection_counts two), so a stack's product does at most
    STACK_ELEMENTS of them, and a graph with n >= 81 runs alone."""
    return stacked(run, graphs, _order_shape)


def _order_shape(g: Graph) -> tuple[int, int, int]:
    return (g.n,) * 3


def shares_stack(g: Graph) -> bool:
    """Whether by_order can stack g with another graph of its order (n <= 80):
    only then does a batch save a kernel call on g, so a caller that keeps
    a batch's facts until it reads them fills only these graphs."""
    return 2 * math.prod(_order_shape(g)) <= STACK_ELEMENTS


def _stack(arrays) -> np.ndarray:
    """Arrays of one shape as one stack; a single array is a stack of one,
    viewed rather than copied."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def adjacency_stack(graphs) -> np.ndarray:
    """The adjacency matrices of graphs of one order, as one uint8 stack."""
    return _stack([g.adj for g in graphs])


def _unstack(stack: np.ndarray) -> list[np.ndarray]:
    """Each array of a result stack as a read-only copy, so a graph's fact
    is freed with the graph rather than with the last graph of its stack."""
    out = [m.copy() for m in stack]
    for m in out:
        m.setflags(write=False)
    return out


@batched
def degree_vector(graphs) -> list[np.ndarray]:
    """The read-only int64 degree vector of each graph, by one row sum per
    stack."""
    return by_order(lambda gs: _unstack(adjacency_stack(gs).sum(axis=2, dtype=np.int64)), graphs)


@per_graph
def _regular_degree(g: Graph) -> int | None:
    deg = g.degrees()
    k = int(deg[0])
    return k if bool((deg == k).all()) else None


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


@batched
def common_neighbour_matrix(graphs) -> list[np.ndarray]:
    """M^2 of each graph as a read-only int64 matrix (diagonal holds the
    degrees), by one stacked product per stack."""
    def run(gs):
        a = adjacency_stack(gs).astype(np.int64)
        return _unstack(a @ a)

    return by_order(run, graphs)


def square_stack(graphs) -> np.ndarray:
    """The M^2s of graphs of one order, as one int64 stack; the graphs that
    lack theirs get it first (common_neighbour_matrix.fill)."""
    return _stack(common_neighbour_matrix.fill(graphs))


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


@batched
def distance_data(graphs) -> list[DistanceData]:
    """The distances of each graph, by one kernel call per stack."""
    def run(gs):
        dists = _kernels.all_pairs_distances(adjacency_stack(gs))
        reach = (dists >= 0).all(axis=(1, 2)).tolist()
        diameters = dists.max(axis=(1, 2)).tolist()
        return [DistanceData(dist, diameter if reached else UNREACHABLE)
                for dist, reached, diameter in zip(_unstack(dists), reach, diameters)]

    return by_order(run, graphs)


def distance_stack(graphs) -> np.ndarray:
    """The distance matrices of graphs of one order, as one int32 stack."""
    return _stack([distance_data(g).dist for g in graphs])


def is_connected(g: Graph) -> bool:
    return distance_data(g).connected


@per_graph
def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum."""
    reach = distance_data(g).dist >= 0
    # a component's least vertex is the first one each of its rows reaches,
    # so the roots are the vertices whose own row reaches none before them
    roots = np.flatnonzero(reach.argmax(axis=1) == np.arange(g.n))
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


@batched
def triangle_count(graphs) -> list[int]:
    """The number of triangles of each graph, via closed-walk counting
    (trace(M^3)/6), by one kernel call per stack; the graphs lacking M^2
    get it first, by one product per stack."""
    return by_order(
        lambda gs: _kernels.triangle_count(adjacency_stack(gs), square_stack(gs)), graphs)


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


def equal_cliques(related: np.ndarray) -> tuple[int, int] | None:
    """(count, size) when the symmetric 0/1 matrix ``related``, read with
    its diagonal set, is an equivalence whose classes all have one size
    (its graph is m equal cliques glued disjointly), else None."""
    related = related.astype(bool) | np.eye(related.shape[0], dtype=bool)
    # it is an equivalence when u and v are related exactly if their
    # classes have the same least member
    least = related.argmax(axis=1)
    sizes = related.sum(axis=1)
    size = int(sizes[0])
    if not (related == (least[:, None] == least[None, :])).all() or (sizes != size).any():
        return None
    return related.shape[0] // size, size


def is_disjoint_clique_union(g: Graph) -> tuple[int, int] | None:
    """(count, size) when g is m equal cliques glued disjointly, else None."""
    return equal_cliques(g.adj)
