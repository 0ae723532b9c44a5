"""Hot counting kernels, vectorised with numpy.

Each kernel has exactly one implementation.  The tests check them against
independent brute-force oracles (Floyd-Warshall distances, enumerated
triangles and common neighbours, a per-pair scan of intersection numbers).

Kernels take the dense ``uint8`` adjacency matrix (symmetric, zero
diagonal) and, where they need it, its int64 square M^2.  Counts fit
comfortably in int64 at the supported sizes.  Each returns what it counts:
the distance matrix (-1 for unreachable pairs), the distinct off-diagonal
values of M^2 over adjacent and over non-adjacent pairs (``class_values``:
a Deza graph's a and b are the least and the greatest over both lists, an
SRG's lambda and mu the one value in each), the number of triangles, and
the intersection numbers b_i, c_i, a_i or a pair that shows there are none
(``intersection_counts``).
"""

from __future__ import annotations

import numpy as np


def all_pairs_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances; -1 marks unreachable pairs."""
    # layered expansion of all BFS frontiers at once
    n = adj.shape[0]
    a = adj.astype(bool)
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    level = 0
    while frontier.any():
        level += 1
        nxt = (frontier @ a) & ~reached
        dist[nxt] = level
        reached |= nxt
        frontier = nxt
    return dist


def class_values(adj: np.ndarray, m2: np.ndarray) -> tuple[list[int], list[int]]:
    """Distinct entries of M^2 over adjacent pairs and over non-adjacent
    pairs of distinct vertices, each ascending."""
    n = adj.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    amask = adj.astype(bool)
    # the entries are small non-negative counts, so a histogram lists them;
    # np.unique would import numpy.ma on its first call in a process
    return tuple(np.flatnonzero(np.bincount(m2[mask & offdiag])).tolist()
                 for mask in (amask, ~amask))


def triangle_count(adj: np.ndarray, m2: np.ndarray) -> int:
    """trace(M^3)/6, read as the sum of M^2 over the edges."""
    return int((m2 * adj).sum()) // 6


def intersection_counts(adj: np.ndarray, dist: np.ndarray, diameter: int):
    """((b, c, a), None) with one list per count for i = 0..diameter, or
    (None, (x, y)).  At the first distance i where one of b_i, c_i, a_i
    (tested in that order) is not constant, (x, y) is the first pair at
    distance i whose count differs from the first pair's.
    """
    b, c, a = [], [], []
    amask = adj.astype(bool)
    for i in range(diameter + 1):
        pairs = np.argwhere(dist == i)
        # neighbour-distance histogram for every (x, y) at distance i
        dn = dist[pairs[:, 0]]  # rows: distances from x
        nb = amask[pairs[:, 1]]  # rows: neighbours of y
        for step, store in ((1, b), (-1, c), (0, a)):
            counts = ((dn == i + step) & nb).sum(axis=1)
            differs = counts != counts[0]
            if differs.any():
                x, y = pairs[differs.argmax()]
                return None, (int(x), int(y))
            store.append(int(counts[0]))
    return (b, c, a), None
