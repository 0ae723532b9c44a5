"""Shared fixtures and independent brute-force oracles.

The oracle helpers here deliberately avoid the library's own code paths:
distances via Floyd-Warshall, 2-colourings via breadth-first search,
triangle and common-neighbour counts via direct enumeration, intersection
numbers via a per-pair neighbour scan, determinants via Bareiss
elimination, characteristic polynomials via Faddeev-LeVerrier over the
integers, powers mod f over GF(p) via list products and long division,
spectra from float64 eigenvalues whose sums and products round to
integers.  Expected values frozen into tests were computed with these.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from dezakit import families, spectra
from dezakit.charpoly import char_poly, poly_try_divide
from dezakit.eigenvalues import Eigenvalue, Spectrum
from dezakit.graphs import Graph, bipartite_double, disjoint_union, line_graph


# ---------------------------------------------------------------------------
# oracles


def brute_common_neighbours(g: Graph, u: int, v: int) -> int:
    return sum(1 for w in range(g.n) if g.adj[u, w] and g.adj[v, w])


def brute_triangles(g: Graph) -> int:
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if g.adj[a, b] and g.adj[a, c] and g.adj[b, c]
    )


def brute_distances(g: Graph) -> np.ndarray:
    big = 10**6
    dist = np.full((g.n, g.n), big, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    dist[g.adj.astype(bool)] = 1
    for k in range(g.n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    dist[dist >= big] = -1
    return dist


def brute_bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """2-colouring by breadth-first search from the least uncoloured vertex
    of each component (colour 0); None when an odd cycle exists."""
    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in range(g.n):
                if not g.adj[u, v]:
                    continue
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
    return [v for v in range(g.n) if colour[v] == 0], [v for v in range(g.n) if colour[v] == 1]


def brute_intersection_counts(adj: np.ndarray, dist: np.ndarray, diameter: int):
    """(ok, b, c, a) from a per-pair scan: for every ordered pair (x, y) at
    distance i, count the neighbours w of y at distance i-1, i, i+1 from x."""
    n = adj.shape[0]
    seen: dict[int, tuple[int, int, int]] = {}
    ok = True
    for x in range(n):
        for y in range(n):
            i = int(dist[x, y])
            counts = [0, 0, 0]  # b, c, a
            for w in range(n):
                if adj[y, w]:
                    dw = int(dist[x, w])
                    if dw == i + 1:
                        counts[0] += 1
                    elif dw == i - 1:
                        counts[1] += 1
                    elif dw == i:
                        counts[2] += 1
            if seen.setdefault(i, tuple(counts)) != tuple(counts):
                ok = False
    b, c, a = (
        np.array([seen[i][j] for i in range(diameter + 1)], dtype=np.int64)
        for j in range(3)
    )
    return ok, b, c, a


def brute_first_failure(adj: np.ndarray, dist: np.ndarray, diameter: int):
    """(i, count, (x, y)) for a connected graph that is not distance-regular,
    else None: at the least distance i where b_i, c_i or a_i (scanned in
    that order) is not constant, the first ordered pair at distance i, by
    rows then columns, whose count differs from the first pair's."""
    n = adj.shape[0]
    for i in range(diameter + 1):
        pairs = [(x, y) for x in range(n) for y in range(n) if dist[x, y] == i]
        for name, step in (("b", 1), ("c", -1), ("a", 0)):
            counts = [sum(1 for w in range(n) if adj[y, w] and dist[x, w] == i + step)
                      for x, y in pairs]
            for pair, count in zip(pairs, counts):
                if count != counts[0]:
                    return i, name, pair
    return None


def faddeev_leverrier(g: Graph) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - M) by the Faddeev-LeVerrier
    recurrence over object-dtype big integers: n matrix products, O(n^4)."""
    n = g.n
    a = g.adj.astype(object)
    eye = np.eye(n, dtype=object)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = a.copy()
    for k in range(1, n + 1):
        t = int(np.trace(mk))
        if t % k:
            raise ArithmeticError("inexact division in Faddeev-LeVerrier")
        ck = -(t // k)
        coeffs[n - k] = ck
        if k < n:
            mk = a.dot(mk + ck * eye)
    return tuple(coeffs)


def _trimmed(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a b over GF(p), on ascending coefficient lists without trailing zeros."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + len(b)] = [o + ai * bj for o, bj in zip(out[i : i + len(b)], b)]
    return _trimmed([c % p for c in out])


def rem_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod the monic f over GF(p), by long division."""
    a, d = [c % p for c in a], len(f) - 1
    for i in range(len(a) - 1, d - 1, -1):
        q = a[i]
        for j in range(d + 1):
            a[i - d + j] = (a[i - d + j] - q * f[j]) % p
    return _trimmed(a[:d])


def powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod the monic f over GF(p) by repeated squaring of lists."""
    base = rem_mod(base, f, p)
    out = [1]
    for bit in bin(e)[2:]:
        out = rem_mod(mul_mod(out, out, p), f, p)
        if bit == "1":
            out = rem_mod(mul_mod(out, base, p), f, p)
    return out


def float_spectrum_or_residual(g: Graph, tol: float = 1e-6):
    """The exact spectrum of g, or the residual of det(xI - M) left when an
    eigenvalue is not quadratic, with every factor proposed from numpy's
    float64 eigenvalues: each value that rounds to an integer z proposes
    x - z, each pair whose sum b and product c round to integers proposes
    x^2 - b x + c (when b^2 - 4c is positive and not a square).  Proposals
    are divided out of the exact characteristic polynomial as often as
    they divide it exactly, so a wrong one changes nothing."""
    values = np.linalg.eigvalsh(g.adj.astype(float))

    def near(v):
        return round(v) if abs(v - round(v)) <= tol else None

    linear = sorted({z for z in map(near, values) if z is not None})
    quadratic = set()
    for i, u in enumerate(values):
        for v in values[i + 1 :]:
            b, c = near(u + v), near(u * v)
            if b is not None and c is not None:
                disc = b * b - 4 * c
                if disc > 0 and math.isqrt(disc) ** 2 != disc:
                    quadratic.add((b, c))
    rem = char_poly(g).coeffs
    entries = []
    for factor, roots in [((-z, 1), [Eigenvalue.integer(z)]) for z in linear] + [
        ((c, -b, 1), Eigenvalue.quadratic_roots(b, c)) for b, c in sorted(quadratic)
    ]:
        mult = 0
        while (quotient := poly_try_divide(rem, factor)) is not None:
            rem, mult = quotient, mult + 1
        entries += [(root, mult) for root in roots if mult]
    return Spectrum(entries) if len(rem) == 1 else rem


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    a = np.zeros((n, n), dtype=np.uint8)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                a[u, v] = a[v, u] = 1
    return Graph(a)


def random_regular_graph(rng: random.Random, n: int, k: int) -> Graph:
    """A k-regular graph on n vertices (n * k even, k < n): a circulant
    shuffled by degree-preserving double-edge swaps."""
    offsets = list(range(1, k // 2 + 1)) + ([n // 2] if k % 2 else [])
    edges = sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in offsets})
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) == 4 and ad not in present and cb not in present:
            present -= {edges[i], edges[j]}
            present |= {ad, cb}
            edges[i], edges[j] = ad, cb
    return Graph.from_edges(n, edges)


def hamming(d: int, q: int) -> Graph:
    """H(d, q): words of length d over q letters, adjacent when they differ
    in one position (the d-cube is H(d, 2))."""
    words = list(product(range(q), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    edges = [
        (index[w], index[w[:i] + (x,) + w[i + 1 :]])
        for w in words
        for i in range(d)
        for x in range(w[i] + 1, q)
    ]
    return Graph.from_edges(len(words), edges)


def folded_cube(d: int) -> Graph:
    """The folded d-cube: the (d-1)-cube plus an edge from each vertex to its
    complement."""
    n = 1 << (d - 1)
    flips = [1 << i for i in range(d - 1)] + [n - 1]
    return Graph.from_edges(n, [(v, v ^ f) for v in range(n) for f in flips])


@pytest.fixture(autouse=True)
def fresh_factor_tables():
    """Start each test with no factor table cached, so that a test which
    counts GF(p) steps does not depend on what earlier tests factored."""
    spectra._TABLES.clear()


# ---------------------------------------------------------------------------
# named graphs (session-scoped; the facts memoised on each are shared by the tests)


@pytest.fixture(scope="session")
def octahedron_lg():
    return families.octahedron_line_graph()


@pytest.fixture(scope="session")
def heawood():
    return families.heawood()


@pytest.fixture(scope="session")
def icosahedron():
    return families.icosahedron()


@pytest.fixture(scope="session")
def petersen():
    return families.petersen()


@pytest.fixture(scope="session")
def johnson63():
    return families.johnson(6, 3)


@pytest.fixture(scope="session")
def line_petersen(petersen):
    return line_graph(petersen)


@pytest.fixture(scope="session")
def taylor13():
    return families.taylor_double_cover(families.paley(13))


@pytest.fixture(scope="session")
def klein24():
    return families.bundled_graph("klein24")


@pytest.fixture(scope="session")
def biplane():
    return families.biplane11()


@pytest.fixture(scope="session")
def cube():
    return families.trivial_design_incidence(3)


@pytest.fixture(scope="session")
def desargues(petersen):
    return bipartite_double(petersen)


@pytest.fixture(scope="session")
def c5():
    return families.cycle(5)


@pytest.fixture(scope="session")
def c6():
    return families.cycle(6)


@pytest.fixture(scope="session")
def c7():
    return families.cycle(7)


@pytest.fixture(scope="session")
def k444():
    return families.complete_multipartite([4, 4, 4])


@pytest.fixture(scope="session")
def two_k33():
    return disjoint_union([families.complete_multipartite([3, 3])] * 2)
