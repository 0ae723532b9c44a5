"""Seeded benchmark inputs, written as graph6 lines.

Random regular graphs come from the pairing (configuration) model.  Plain
rejection of non-simple pairings almost never succeeds at k >= 6, so loops
and repeated pairs are repaired by switching them with a random other pair,
and k > (n-1)/2 is drawn as the complement of an (n-1-k)-regular graph.
A small share of seed-relabelled family members (Paley, Petersen, Johnson,
complete multipartite, disjoint cliques, Taylor double covers) exercises the
strongly-Deza, divisible-design and quadratic-spectrum paths at degree > 2.

Everything here is plain Python over sets and depends on nothing from the
package under test, so the inputs do not change when the package does.
"""

from __future__ import annotations

import random
from itertools import combinations


def degrees(n: int) -> list[int]:
    """The degrees drawn at order n: 2 <= k <= n-3 with nk even."""
    return [k for k in range(2, n - 2) if n * k % 2 == 0]


# -- graph6 -----------------------------------------------------------------


def graph6(n: int, edges) -> str:
    """graph6 line of a simple graph with vertices 0..n-1 (n <= 258047)."""
    if 1 <= n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        raise ValueError("graph6 holds at most 258047 vertices")
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        if u > v:
            u, v = v, u
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    out = [head]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        out.append(chr(63 + value))
    return "".join(out)


# -- random regular graphs --------------------------------------------------


def _pairing_edges(rng: random.Random, n: int, k: int) -> set[tuple[int, int]]:
    """Simple k-regular edge set: a random pairing whose loops and repeated
    pairs are removed by switching with random other pairs."""
    while True:
        points = [v for v in range(n) for _ in range(k)]
        rng.shuffle(points)
        pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
        count: dict[tuple[int, int], int] = {}
        for a, b in pairs:
            key = (a, b) if a < b else (b, a)
            count[key] = count.get(key, 0) + 1

        def bad(i: int) -> bool:
            a, b = pairs[i]
            return a == b or count[(a, b) if a < b else (b, a)] > 1

        budget = 200 * len(pairs)
        todo = [i for i in range(len(pairs)) if bad(i)]
        while todo and budget:
            i = todo[-1]
            if not bad(i):
                todo.pop()
                continue
            budget -= 1
            j = rng.randrange(len(pairs))
            if j == i:
                continue
            a, b = pairs[i]
            c, d = pairs[j]
            if rng.random() < 0.5:
                c, d = d, c
            e1 = (a, c) if a < c else (c, a)
            e2 = (b, d) if b < d else (d, b)
            if a == c or b == d or e1 == e2 or count.get(e1) or count.get(e2):
                continue
            for x, y in (pairs[i], pairs[j]):
                key = (x, y) if x < y else (y, x)
                count[key] -= 1
            count[e1] = count[e2] = 1
            pairs[i], pairs[j] = e1, e2
            if bad(j):
                todo.append(j)
        if not todo:
            return {e for e, c in count.items() if c}


def random_regular(rng: random.Random, n: int, k: int) -> set[tuple[int, int]]:
    """Edge set (u < v) of a random simple k-regular graph on n vertices."""
    if not 0 <= k < n or n * k % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices")
    if 2 * k <= n - 1:
        return _pairing_edges(rng, n, k)
    co = _pairing_edges(rng, n, n - 1 - k)
    return {e for e in combinations(range(n), 2) if e not in co}


# -- family members ---------------------------------------------------------


def _subset_graph(n: int, k: int, meet: int) -> tuple[int, set[tuple[int, int]]]:
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    edges = {
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if len(subsets[i] & subsets[j]) == meet
    }
    return len(subsets), edges


def johnson(n: int, k: int) -> tuple[int, set[tuple[int, int]]]:
    return _subset_graph(n, k, k - 1)


def petersen() -> tuple[int, set[tuple[int, int]]]:
    return _subset_graph(5, 2, 0)


def paley_prime(q: int) -> tuple[int, set[tuple[int, int]]]:
    squares = {x * x % q for x in range(1, q)}
    return q, {(i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares}


def paley9() -> tuple[int, set[tuple[int, int]]]:
    """Paley graph on GF(9) = Z_3[i] / (i^2 + 1); element a + b*i is 3b + a."""
    elems = [(a, b) for b in range(3) for a in range(3)]

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % 3, (x[0] * y[1] + x[1] * y[0]) % 3)

    squares = {mul(x, x) for x in elems if x != (0, 0)}
    edges = set()
    for i, j in combinations(range(9), 2):
        diff = ((elems[i][0] - elems[j][0]) % 3, (elems[i][1] - elems[j][1]) % 3)
        if diff in squares:
            edges.add((i, j))
    return 9, edges


def complete_multipartite(parts: int, size: int) -> tuple[int, set[tuple[int, int]]]:
    n = parts * size
    return n, {(u, v) for u, v in combinations(range(n), 2) if u // size != v // size}


def disjoint_cliques(count: int, size: int) -> tuple[int, set[tuple[int, int]]]:
    n = count * size
    return n, {(u, v) for u, v in combinations(range(n), 2) if u // size == v // size}


def taylor_cover(base) -> tuple[int, set[tuple[int, int]]]:
    """Antipodal double cover of K_{n+1} from a Paley graph on n vertices."""
    n, edges = base
    cover = set()
    for v in range(n):
        cover.add((0, 1 + v))
        cover.add((n + 1, n + 2 + v))
    for u, v in combinations(range(n), 2):
        if (u, v) in edges:
            cover.add((1 + u, 1 + v))
            cover.add((n + 2 + u, n + 2 + v))
        else:
            cover.add((1 + u, n + 2 + v))
            cover.add((1 + v, n + 2 + u))
    return 2 * n + 2, cover


#: family members mixed into the small-graph streams (all n <= 20)
STREAM_FAMILIES = {
    "paley13": lambda: paley_prime(13),
    "petersen": petersen,
    "johnson6_3": lambda: johnson(6, 3),
    "k4_4_4": lambda: complete_multipartite(3, 4),
    "3k4": lambda: disjoint_cliques(3, 4),
    "taylor_paley5": lambda: taylor_cover(paley_prime(5)),
    "taylor_paley9": lambda: taylor_cover(paley9()),
}


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


# -- streams ----------------------------------------------------------------


def small_stream(rng: random.Random, orders, per_order: int, per_family: int) -> list[str]:
    """Shuffled graph6 lines, none repeated: per_order random regular graphs
    of every order, cycling through that order's degrees, plus per_family
    relabelled copies of every stream family.

    The composition is fixed and only the draws depend on rng, so the work
    per stream stays steady from seed to seed.
    """
    seen: set[str] = set()
    lines: list[str] = []

    def add(make) -> None:
        for _ in range(1000):
            n, edges = make()
            line = graph6(n, relabel(rng, n, edges))
            if line not in seen:
                seen.add(line)
                lines.append(line)
                return
        raise RuntimeError("could not draw a new graph for the stream")

    for n in orders:
        ks = degrees(n)
        for i in range(per_order):
            add(lambda: (n, random_regular(rng, n, ks[i % len(ks)])))
    for build in STREAM_FAMILIES.values():
        base = build()
        for _ in range(per_family):
            add(lambda: base)
    rng.shuffle(lines)
    return lines
