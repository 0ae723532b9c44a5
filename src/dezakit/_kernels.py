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
(``intersection_counts``).
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
    or (None, (x, y)).  At the first distance i where one of b_i, c_i, a_i
    (tested in that order) is not constant, (x, y) is the first pair at
    distance i, in np.argwhere order, whose count differs from the first
    pair's.
    """
    stack, n, _ = dists.shape
    # row g * n + x of the flattened stack is row x of graph g, so one index
    # array gathers the rows of every graph
    flat = dists.reshape(stack * n, n)
    amask = adjs.reshape(stack * n, n).astype(bool)
    degrees = amask.sum(axis=1)
    witnesses: list = [None] * stack
    alive = np.ones(stack, dtype=bool)
    levels = []  # per distance i: b_i, c_i, a_i of every graph, -1 for none
    for i in range(int(dists.max(initial=0)) + 1):
        rows, ys = np.nonzero(flat == i)  # np.argwhere order within a graph
        graphs = rows // n
        if not alive.all():
            keep = alive[graphs]
            rows, ys, graphs = rows[keep], ys[keep], graphs[keep]
        if not rows.size:
            break
        # each graph's pairs are consecutive, its first at its offset
        sizes = np.bincount(graphs, minlength=stack)
        members = np.flatnonzero(sizes)
        first = (sizes.cumsum() - sizes)[members]
        # neighbour-distance histogram for every (x, y) at distance i
        dn = flat[rows]  # rows: distances from x
        ys += graphs * n  # rows of the flattened stack
        nb = amask[ys]  # rows: neighbours of y
        level = np.full((3, stack), -1, dtype=np.int64)
        found = []
        for slot, step in enumerate((1, -1, 0)):
            if step:
                counts = ((dn == i + step) & nb).sum(axis=1)
            else:
                # each neighbour of y is at distance i - 1, i or i + 1 from x
                counts = degrees[ys] - found[0] - found[1]
            found.append(counts)
            level[slot, members] = counts[first]
            differs = counts != np.repeat(counts[first], sizes[members])
            if not differs.any():
                continue
            # each failing graph's first differing pair, unless it failed at
            # an earlier count of this distance
            at = np.flatnonzero(differs)
            failing = graphs[at]
            lead = np.diff(failing, prepend=-1) != 0
            for pair, g in zip(at[lead].tolist(), failing[lead].tolist()):
                if alive[g]:
                    alive[g] = False
                    witnesses[g] = (None, (int(rows[pair] % n), int(ys[pair] % n)))
        levels.append(level)
        # free this level's (pairs, n) rows before the next level gathers its
        # own, so two levels' rows never coexist
        del dn, nb, found, counts
    table = np.stack(levels, axis=2)  # (count, graph, distance)
    depth = (table[0] >= 0).sum(axis=1).tolist()
    table = table.tolist()
    return [
        witnesses[g] or (tuple(counts[g][: depth[g]] for counts in table), None)
        for g in range(stack)
    ]
