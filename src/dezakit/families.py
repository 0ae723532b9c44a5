"""Constructors for every named graph and family used by the toolkit.

All constructors are deterministic: vertex orders are fixed (lexicographic
subsets, field elements in base-p digit order, etc.) so repeated calls and
the CLI produce byte-identical graph6 output.  Graphs without a compact
algebraic construction ship as vetted graph6 data with an expectation
record that is asserted on load.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import combinations, count
from math import comb

import numpy as np

from .eigenvalues import Spectrum
from .graph6 import MAX_N
from .graphs import Graph, disjoint_union, line_graph, meet_graph

# ---------------------------------------------------------------------------
# elementary families


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    a = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(a, 0)
    return Graph(a)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_cliques(m: int, size: int) -> Graph:
    """m disjoint copies of K_size (size >= 2)."""
    if m < 1:
        raise ValueError("need at least one clique")
    if size < 2:
        raise ValueError("clique size must be at least 2")
    return disjoint_union([complete(size)] * m)


def complete_multipartite(part_sizes) -> Graph:
    """Edges exactly between distinct parts, parts in the given order."""
    sizes = [int(s) for s in part_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two parts")
    if any(s < 1 for s in sizes):
        raise ValueError("empty part")
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    a = (labels[:, None] != labels[None, :]).astype(np.uint8)
    return Graph(a)


def kneser(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when disjoint."""
    if n < 2 * k:
        raise ValueError("kneser graph needs n >= 2k")
    return meet_graph(n, combinations(range(n), k), 0)


def petersen() -> Graph:
    return kneser(5, 2)


def johnson(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when meeting in k-1 points."""
    if not 1 <= k <= n:
        raise ValueError("johnson graph needs 1 <= k <= n")
    return meet_graph(n, combinations(range(n), k), k - 1)


def icosahedron() -> Graph:
    """The 12-vertex 5-regular planar graph, from a fixed edge table."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(i + 5, (i % 5) + 6) for i in range(1, 6)]
    edges += [(11, i) for i in range(6, 11)]
    edges += [(i, i + 5) for i in range(1, 6)]
    edges += [(i, (i % 5) + 6) for i in range(1, 6)]
    return Graph.from_edges(12, edges)


# ---------------------------------------------------------------------------
# Paley graphs


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p**e, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            m = n
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return n, 1


def paley(q: int) -> Graph:
    """Quadratic-residue graph on GF(q) for q = p or p^2 with q = 1 (mod 4).

    Element i is a + b*t with a = i mod p and b = i div p, where t^2 = -c
    for the least c > 0 making -c a non-square mod p; for q = p, b = 0.
    """
    if q % 4 != 1:
        raise ValueError("paley graph needs q = 1 (mod 4)")
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    if e > 2:
        raise ValueError(f"paley graph needs q = p or p^2, not {p}^{e}")
    c = next(c for c in count(1) if pow(-c, (p - 1) // 2, p) == p - 1)
    b, a = np.divmod(np.arange(1, q), p)
    squares = np.zeros(q, dtype=bool)
    squares[(a * a - c * b * b) % p + p * (2 * a * b % p)] = True
    b, a = np.divmod(np.arange(q), p)
    diff = (a[:, None] - a) % p + p * ((b[:, None] - b) % p)
    return Graph(squares[diff].astype(np.uint8))


# ---------------------------------------------------------------------------
# Taylor double covers and design incidence graphs


def taylor_double_cover(g: Graph) -> Graph:
    """Antipodal 2-cover of K_{n+1} built from a conference-type graph.

    Vertices: 0 and 1..n are one fibre pole and one copy of V(g);
    n+1 and n+2..2n+1 mirror them.  Requires g strongly regular with
    k = 2*mu.
    """
    from .deza import detect_srg  # local import to avoid a module cycle

    params = detect_srg(g)
    if params is None or params.k != 2 * params.mu:
        raise ValueError("taylor double cover needs an SRG with k = 2*mu")
    n = g.n
    a = np.zeros((2 * n + 2, 2 * n + 2), dtype=np.uint8)
    for pole in (0, n + 1):
        side = slice(pole + 1, pole + n + 1)
        a[pole, side] = a[side, pole] = 1
        a[side, side] = g.adj
    # u in one copy meets v' in the other exactly when u != v are non-adjacent
    a[1 : n + 1, n + 2 :] = a[n + 2 :, 1 : n + 1] = 1 - g.adj - np.eye(n, dtype=np.uint8)
    return Graph(a)


def symmetric_design_incidence(v: int, base_block) -> Graph:
    """Incidence graph of the cyclic symmetric design developed from a
    difference set over Z_v (blocks are the translates of the base block).

    Points are vertices 0..v-1, blocks v..2v-1 (block i = base + i).
    """
    block = sorted(set(int(x) % v for x in base_block))
    k = len(block)
    if k < 2 or k >= v:
        raise ValueError("block size must satisfy 2 <= k < v")
    if (k * (k - 1)) % (v - 1):
        raise ValueError(f"design identity fails: {k}(k-1) not divisible by {v - 1}")
    lam = k * (k - 1) // (v - 1)
    counts = [0] * v
    for x in block:
        for y in block:
            if x != y:
                counts[(x - y) % v] += 1
    if any(c != lam for c in counts[1:]):
        raise ValueError(f"{block} is not a (v={v}, k={k}, lambda={lam}) difference set")
    a = np.zeros((2 * v, 2 * v), dtype=np.uint8)
    for i in range(v):
        for p in block:
            point = (p + i) % v
            a[point, v + i] = 1
            a[v + i, point] = 1
    return Graph(a)


def heawood() -> Graph:
    """Incidence graph of the Fano plane."""
    return symmetric_design_incidence(7, (1, 2, 4))


def biplane11() -> Graph:
    """Incidence graph of the 2-(11,5,2) biplane."""
    return symmetric_design_incidence(11, (1, 3, 4, 5, 9))


def trivial_design_incidence(k: int) -> Graph:
    """Incidence graph of the 2-(k+1, k, k-1) design: K_{k+1,k+1} minus a
    perfect matching."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return symmetric_design_incidence(k + 1, tuple(range(1, k + 1)))


def octahedron_line_graph() -> Graph:
    """Line graph of K_{2,2,2}, the smallest singular strongly Deza graph."""
    return line_graph(complete_multipartite([2, 2, 2]))


# ---------------------------------------------------------------------------
# bundled graphs


def _load_expectation(name: str) -> dict:
    text = resources.files("dezakit.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def bundled_graph(name: str) -> Graph:
    """Load an embedded graph6 asset, asserting its expectation record.

    The record pins the exact spectrum (and hence, for the distance-regular
    entries, the graph up to the usual spectral-uniqueness guarantees) plus
    degree and intersection-array data.
    """
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled graph {name!r}")
    from .distreg import intersection_array
    from .graph6 import parse_graph6
    from .spectra import exact_spectrum

    g6 = resources.files("dezakit.data").joinpath(f"{name}.g6").read_text().strip()
    g = parse_graph6(g6)
    exp = _load_expectation(name)
    if g.n != exp["n"] or g.regular_degree() != exp["degree"]:
        raise AssertionError(f"bundled graph {name} fails its size/degree record")
    if exact_spectrum(g) != Spectrum.from_json(exp["spectrum"]):
        raise AssertionError(f"bundled graph {name} fails its spectrum record")
    ia = intersection_array(g)
    if ia is None or [list(ia.b), list(ia.c)] != exp["intersection_array"]:
        raise AssertionError(f"bundled graph {name} fails its intersection array")
    if "deza" in exp:
        from .deza import detect_deza

        params = detect_deza(g)
        if params is None or list(params.as_tuple()) != exp["deza"]:
            raise AssertionError(f"bundled graph {name} fails its Deza record")
    return g


BUNDLED = ("klein24",)


# ---------------------------------------------------------------------------
# catalog for the command line

# name -> (constructor, argument synopsis, vertex count from the arguments)
CATALOG = {
    "complete": (complete, "N", lambda n: n),
    "cycle": (cycle, "N", lambda n: n),
    "cliques": (disjoint_cliques, "M SIZE", lambda m, size: m * size),
    "multipartite": (lambda *sizes: complete_multipartite(sizes), "SIZE...",
                     lambda *sizes: sum(sizes)),
    "kneser": (kneser, "N K", comb),
    "petersen": (petersen, "", lambda: 10),
    "johnson": (johnson, "N K", comb),
    "icosahedron": (icosahedron, "", lambda: 12),
    "paley": (paley, "Q", lambda q: q),
    "taylor-paley": (lambda q: taylor_double_cover(paley(q)), "Q", lambda q: 2 * q + 2),
    "heawood": (heawood, "", lambda: 14),
    "biplane11": (biplane11, "", lambda: 22),
    "trivial-design": (trivial_design_incidence, "K", lambda k: 2 * k + 2),
    "octahedron-line-graph": (octahedron_line_graph, "", lambda: 12),
    "klein24": (lambda: bundled_graph("klein24"), "", lambda: 24),
}


def construct(name: str, args: list[str]) -> Graph:
    """Build a catalog graph from CLI-style string arguments, refusing one
    with more vertices than graph6 can hold before building it."""
    if name not in CATALOG:
        raise ValueError(f"unknown family {name!r}")
    fn, spec, order = CATALOG[name]
    if name == "multipartite":
        if not args:
            raise ValueError("multipartite needs at least two part sizes")
    elif len(args) != len(spec.split()):
        raise ValueError(f"family {name} expects arguments: {spec or '(none)'}")
    ints = [int(a) for a in args]
    # no family takes a negative argument, and comb refuses one
    n = order(*ints) if min(ints, default=0) >= 0 else 0
    if n > MAX_N:
        raise ValueError(f"{name} {' '.join(args)} has {n} vertices, above the graph6 cap {MAX_N}")
    return fn(*ints)
