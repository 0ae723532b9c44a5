"""Hot counting kernels, vectorised with numpy.

Each kernel has exactly one implementation, and it takes a stack: an array
of shape (graphs, n, n) holding the dense ``uint8`` adjacency matrices
(symmetric, zero diagonal) of graphs of one order n, and where it needs
them their int64 squares M^2 stacked the same way.  A single graph is a
stack of one (``adj[None]``), so a stream of small graphs pays a kernel's
numpy call overhead once per stack instead of once per graph.  The tests
check every kernel against independent brute-force oracles (Floyd-Warshall
distances, enumerated triangles and common neighbours, a per-pair scan of
intersection numbers), graph by graph on mixed stacks.

Counts fit comfortably in int64 at the supported sizes.  Each kernel
returns what it counts for each graph of the stack: the distance matrices
(-1 for unreachable pairs), the distinct off-diagonal values of M^2 over
adjacent and over non-adjacent pairs (``class_values``: a Deza graph's a
and b are the least and the greatest over both lists, an SRG's lambda and
mu the one value in each), the number of triangles, and the intersection
numbers b_i, c_i, a_i or a pair that shows there are none
(``intersection_counts``: every pair's b - c and b + c from two stacked
int64 products of the distance and adjacency matrices, then one stable
sort of each graph's pairs by distance, so its memory is a few n^2
matrices per graph whatever the diameter).
"""

from __future__ import annotations

import numpy as np


def all_pairs_distances(adjs: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances of each graph of the stack, as an int32 stack;
    -1 marks unreachable pairs."""
    # layered expansion of all BFS frontiers of all graphs at once
    stack, n, _ = adjs.shape
    a = adjs.astype(bool)
    diagonal = np.arange(n)
    dist = np.full((stack, n, n), -1, dtype=np.int32)
    dist[:, diagonal, diagonal] = 0
    reached = dist == 0
    frontier = reached.copy()
    level = 0
    while frontier.any():
        level += 1
        nxt = (frontier @ a) & ~reached
        dist[nxt] = level
        reached |= nxt
        frontier = nxt
    return dist


def class_values(adjs: np.ndarray, m2s: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """For each graph of the stack, the distinct entries of M^2 over adjacent
    pairs and over non-adjacent pairs of distinct vertices, each ascending."""
    stack, n, _ = adjs.shape
    # an entry counts common neighbours (the diagonal: the degree), so it is
    # below n, and (graph, class, value) keys one histogram cell: class 0 is
    # adjacent; np.unique would import numpy.ma on its first call in a process
    keys = (adjs == 0) * n
    keys += m2s
    keys += (np.arange(stack) * 2 * n)[:, None, None]
    diagonal = np.arange(n)
    cells = np.bincount(keys.ravel(), minlength=stack * 2 * n)
    cells -= np.bincount(keys[:, diagonal, diagonal].ravel(), minlength=stack * 2 * n)
    cells = cells.reshape(stack * 2, n)
    values = np.nonzero(cells)[1].tolist()
    ends = np.count_nonzero(cells, axis=1).cumsum().tolist()
    lists = [values[start:end] for start, end in zip([0, *ends], ends)]
    return list(zip(lists[0::2], lists[1::2]))


def triangle_count(adjs: np.ndarray, m2s: np.ndarray) -> list[int]:
    """trace(M^3)/6 of each graph of the stack, read as the sum of M^2 over
    the edges."""
    return ((m2s * adjs).sum(axis=(1, 2)) // 6).tolist()


def intersection_counts(adjs: np.ndarray, dists: np.ndarray) -> list:
    """For each connected graph of the stack, with dists its distance
    matrices: ((b, c, a), None) with one list per count for i = 0..diameter,
    or (None, (x, y)).  At the first distance i where b_i or c_i (tested in
    that order) is not constant, (x, y) is the first pair at distance i, in
    np.argwhere order, whose count differs from the first pair's.

    Every neighbour z of y has d(x, z) = d(x, y) + e with e in {-1, 0, 1},
    so with A the adjacency matrix, D the distance matrix and * the
    entrywise product, S = D A and Q = (D * D) A give every pair's
    b - c = S - deg(y) D and b + c = Q - 2 D * S + deg(y) D * D, by two
    stacked products.  a_i needs no test: b_0 is the degree, so a graph
    whose b_0 is constant is k-regular, and then a_i = k - b_i - c_i is
    constant wherever b_i and c_i are, so it never fails first.
    """
    stack, n, _ = dists.shape
    a = adjs.astype(np.int64)
    d = dists.astype(np.int64)
    k = a.sum(axis=1)[:, None, :]  # deg(y) along each column y
    s = d @ a
    minus = s - k * d  # b - c
    plus = (d * d) @ a - 2 * d * s + k * d * d  # b + c
    # each graph's pairs by distance, stably, so that each distance's pairs
    # keep np.argwhere order
    d = d.reshape(stack, n * n)
    order = np.argsort(d, axis=1, kind="stable")
    level = np.take_along_axis(d, order, axis=1)
    counts = np.stack([plus + minus, plus - minus]).reshape(2, stack, n * n) // 2
    counts = np.take_along_axis(counts, order[None], axis=2)  # b, c
    heads = np.diff(level, axis=1, prepend=-1) != 0  # each distance's first pair
    firsts = counts[:, heads]  # (count, distances of every graph)
    sizes = np.diff(np.append(np.flatnonzero(heads), heads.size))
    differs = (counts.reshape(2, -1) != np.repeat(firsts, sizes, axis=1)).reshape(counts.shape)
    # each graph's first differing pair of each count, at its distance (n
    # for none); c is chosen only at a distance below b's
    graphs = np.arange(stack)
    first = differs.argmax(axis=2)
    at = np.where(differs.any(axis=2), level[graphs, first], n)
    pairs = order[graphs, np.where(at[1] < at[0], first[1], first[0])].tolist()
    failed = (at < n).any(axis=0).tolist()
    b, c = firsts.tolist()
    ends = heads.sum(axis=1).cumsum().tolist()
    out = []
    for g, (start, end) in enumerate(zip([0, *ends], ends)):
        bs, cs = b[start:end], c[start:end]
        out.append((None, divmod(pairs[g], n)) if failed[g]
                   else ((bs, cs, [bs[0] - x - y for x, y in zip(bs, cs)]), None))
    return out
