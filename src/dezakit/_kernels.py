"""Hot counting kernels, vectorised with numpy.

Each kernel has exactly one implementation.  The tests check them against
independent brute-force oracles (Floyd-Warshall distances, enumerated
triangles and common neighbours, a per-pair scan of intersection numbers).

Kernels take the dense ``uint8`` adjacency matrix (symmetric, zero
diagonal) and, where they need it, its int64 square M^2.  Counts fit
comfortably in int64 at the supported sizes.
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


def pair_values(m2: np.ndarray):
    """Distinct off-diagonal entries of M^2, capped at three.

    Returns (count, v0, v1, v2) with the smallest values in ascending order
    and -1 in unused slots.
    """
    n = m2.shape[0]
    vals = np.unique(m2[~np.eye(n, dtype=bool)])
    out = [-1, -1, -1]
    for i, v in enumerate(vals[:3]):
        out[i] = int(v)
    return min(len(vals), 3), out[0], out[1], out[2]


def class_values(adj: np.ndarray, m2: np.ndarray):
    """Common-neighbour profile split by adjacency (SRG test).

    Returns (#distinct over adjacent pairs, smallest value, #distinct over
    non-adjacent pairs, smallest value); distinct counts are capped at 2
    and an empty class gives (0, -1).
    """
    n = adj.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    amask = adj.astype(bool)
    lam_vals = np.unique(m2[amask & offdiag])
    mu_vals = np.unique(m2[~amask & offdiag])
    nlam = min(len(lam_vals), 2)
    nmu = min(len(mu_vals), 2)
    lam = int(lam_vals[0]) if len(lam_vals) else -1
    mu = int(mu_vals[0]) if len(mu_vals) else -1
    return nlam, lam, nmu, mu


def triangle_count(adj: np.ndarray, m2: np.ndarray) -> int:
    """trace(M^3)/6, read as the sum of M^2 over the edges."""
    return int((m2 * adj).sum()) // 6


def intersection_counts(adj: np.ndarray, dist: np.ndarray, diameter: int):
    """Intersection numbers (b_i, c_i, a_i) for i = 0..diameter.

    Returns (ok, x, y, b, c, a).  When some pair (x, y) at distance i has a
    neighbour-distance count differing from the first pair at that
    distance, ok is False and (x, y) is that pair.
    """
    diameter = int(diameter)
    b = np.full(diameter + 1, -1, dtype=np.int64)
    c = np.full(diameter + 1, -1, dtype=np.int64)
    a = np.full(diameter + 1, -1, dtype=np.int64)
    amask = adj.astype(bool)
    for i in range(diameter + 1):
        pairs = np.argwhere(dist == i)
        # neighbour-distance histogram for every (x, y) at distance i
        dn = dist[pairs[:, 0]]  # rows: distances from x
        nb = amask[pairs[:, 1]]  # rows: neighbours of y
        ci = ((dn == i - 1) & nb).sum(axis=1)
        ai = ((dn == i) & nb).sum(axis=1)
        bi = ((dn == i + 1) & nb).sum(axis=1)
        for arr, store in ((bi, b), (ci, c), (ai, a)):
            vals = np.unique(arr)
            if len(vals) > 1:
                bad = int(np.argmax(arr != arr[0]))
                x, y = int(pairs[bad, 0]), int(pairs[bad, 1])
                return False, x, y, b, c, a
            store[i] = int(vals[0])
    return True, -1, -1, b, c, a
