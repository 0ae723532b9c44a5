"""Exact characteristic polynomials against independent oracles: Bareiss
determinants, the Faddeev-LeVerrier recurrence and closed forms."""

import contextlib
import math
import random

import numpy as np
import pytest

from conftest import faddeev_leverrier, random_graph, random_regular_graph
from dezakit import charpoly, deza, families, graphs, report, spectra
from dezakit.charpoly import CharPoly, char_poly, poly_divmod_monic, poly_eval, poly_mul, poly_try_divide
from dezakit.graph6 import MAX_N
from dezakit.graphs import Graph, complement
from dezakit.verify import bareiss_determinants, corpus


def _prime_count(g):
    return len(charpoly.primes_for(g.n, int(g.degrees().max(initial=0))))


def test_small_examples():
    assert char_poly(families.complete(2)).coeffs == (-1, 0, 1)
    assert char_poly(families.complete(3)).coeffs == (-2, -3, 0, 1)
    # (x-2)(x^2+x-1)^2 expanded
    assert char_poly(families.cycle(5)).coeffs == (-2, 5, 0, -5, 0, 1)


def test_str():
    assert str(char_poly(families.cycle(5))) == "x^5 - 5x^3 + 5x - 2"
    assert str(char_poly(families.complete(2))) == "x^2 - 1"


def test_validation():
    with pytest.raises(ValueError, match="monic"):
        CharPoly((1, 2))
    with pytest.raises(ValueError, match="traceless"):
        CharPoly((0, 1, 1))


def test_edge_count_coefficient():
    # coefficient of x^(n-2) equals minus the number of edges
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 14))
        assert char_poly(g).coeffs[g.n - 2] == -g.edge_count()


def test_matches_bareiss_determinant():
    rng = random.Random(13)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 12))
        cp = char_poly(g)
        for x in (-3, -1, 0, 2, 5):
            xi_minus_m = [
                [x * (i == j) - int(g.adj[i, j]) for j in range(g.n)]
                for i in range(g.n)
            ]
            assert cp(x) == bareiss_determinants([xi_minus_m])[0]


def test_char_poly_is_a_per_graph_fact(monkeypatch):
    passes = []
    kernel = charpoly.char_poly_mod
    # each pass is recorded by the adjacency array of its first row
    monkeypatch.setattr(charpoly, "char_poly_mod",
                        lambda adjs, primes: passes.append(adjs[0]) or kernel(adjs, primes))
    g = Graph(families.petersen().adj)  # no fact computed yet
    assert _prime_count(g) <= spectra.CERTIFY_ABOVE_PRIMES  # the CRT route
    spectra.exact_spectrum(g)
    assert len(passes) == 1 and passes[0] is g.adj
    cp = char_poly(g)
    assert char_poly(g) is cp and len(passes) == 1
    # an equal graph is a new analysis: it runs its own pass
    other = Graph(g.adj)
    assert char_poly(other) == cp and len(passes) == 2 and passes[1] is other.adj


def test_poly_helpers():
    a = poly_mul((1, 1), (-1, 1))  # (x+1)(x-1) = x^2 - 1
    assert a == (-1, 0, 1)
    quot, rem = poly_divmod_monic((-1, 0, 1), (1, 1))
    assert quot == (-1, 1) and rem == (0,)
    assert poly_try_divide((-1, 0, 1), (2, 1)) is None
    assert poly_try_divide((-1, 0, 1), (-1, 1)) == (1, 1)
    assert poly_eval((1, 2, 3), 10) == 321
    with pytest.raises(ValueError, match="monic"):
        poly_divmod_monic((1, 1), (1, 2))


def test_matches_faddeev_leverrier_on_random_graphs():
    rng = random.Random(2026)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 30), rng.choice((0.1, 0.3, 0.5, 0.8)))
        assert char_poly(g).coeffs == faddeev_leverrier(g)


def test_matches_faddeev_leverrier_on_corpus():
    counts = []
    for g in corpus().values():
        assert char_poly(g).coeffs == faddeev_leverrier(g)
        counts.append(_prime_count(g))
    assert max(counts) >= 3  # taylor-paley-13, 2rook4, johnson-7-3


@pytest.mark.parametrize("make, primes", [
    pytest.param(lambda: families.paley(61), 7, id="paley-61"),
    pytest.param(lambda: complement(families.paley(61)), 7, id="paley-61-complement"),
    pytest.param(lambda: families.johnson(8, 3), 5, id="johnson-8-3"),
])
def test_matches_faddeev_leverrier_with_several_primes(make, primes):
    g = make()
    assert _prime_count(g) == primes
    assert char_poly(g).coeffs == faddeev_leverrier(g)


def test_complete_graph_at_graph6_cap():
    # worst case of the coefficient bound: n = 258, k = 257
    g = families.complete(MAX_N)
    assert _prime_count(g) == 41
    x_plus_1_power = tuple(math.comb(MAX_N - 1, i) for i in range(MAX_N))
    expected = poly_mul((-(MAX_N - 1), 1), x_plus_1_power)
    assert char_poly(g).coeffs == expected


def test_complete_bipartite_at_graph6_cap():
    half = MAX_N // 2
    g = families.complete_multipartite([half, half])
    assert _prime_count(g) == 36
    expected = (0,) * (MAX_N - 2) + (-half * half, 0, 1)
    assert char_poly(g).coeffs == expected


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_prime_list_covers_the_bound():
    primes = charpoly.modular_primes()
    assert all(a > b for a, b in zip(primes, primes[1:]))
    assert primes[0] < charpoly.PRIME_LIMIT
    cap = charpoly.primes_for(MAX_N, MAX_N - 1)
    assert all(_is_prime(p) for p in cap)
    assert math.prod(cap) > 2 * charpoly.coefficient_bound(MAX_N, MAX_N - 1)
    # the list also covers the largest order int64 accumulation allows ...
    top = charpoly.primes_for(charpoly.MAX_ORDER, charpoly.MAX_ORDER - 1)
    assert len(top) < len(primes)
    # ... and a sum of MAX_ORDER products of two residues fits int64
    largest = (charpoly.PRIME_LIMIT - 1) ** 2
    assert charpoly.MAX_ORDER * largest + charpoly.PRIME_LIMIT < 2**63
    assert MAX_N * largest < 2**61


def test_coefficient_bound_holds():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 16), rng.random())
        bound = charpoly.coefficient_bound(g.n, int(g.degrees().max(initial=0)))
        assert max(abs(c) for c in faddeev_leverrier(g)) <= bound
    assert charpoly.coefficient_bound(5, 0) == 1


def test_order_limit():
    g = Graph(np.zeros((charpoly.MAX_ORDER + 1,) * 2, dtype=np.uint8))
    with pytest.raises(ValueError, match="n <="):
        char_poly(g)


def test_hessenberg_mod_small_primes():
    # tiny primes make zero pivots and row swaps common; every prime still
    # yields the true residue of every coefficient
    rng = random.Random(11)
    p = np.array([2, 3, 5, 7, 11], dtype=np.int64)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 14), rng.choice((0.2, 0.5, 0.9)))
        h = np.repeat(g.adj.astype(np.int64)[None], len(p), axis=0)
        charpoly._hessenberg(h, p)
        assert not np.tril(h, -2).any()
        residues = charpoly._hessenberg_charpoly(h, p)
        exact = np.array(faddeev_leverrier(g), dtype=object)
        for q, row in zip(p.tolist(), residues.tolist()):
            assert row == (exact % q).tolist()


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _stack_mix():
    """Fresh graphs of mixed orders needing 1, 2 and 3 primes, K1, an
    edgeless graph, the perfect matching on 80 vertices (the largest order
    the CRT route decides for a graph with edges), and paths beside graphs
    of their order: a path is already Hessenberg, so it needs no step at any
    column, while the kernel steps a column when any row of the stack needs
    it."""
    rng = random.Random(20)
    return [
        Graph(np.zeros((1, 1), dtype=np.uint8)),
        Graph(np.zeros((6, 6), dtype=np.uint8)),
        _path(8),
        families.cycle(8),
        random_graph(rng, 8),
        families.petersen(),
        random_regular_graph(rng, 16, 6),
        random_regular_graph(rng, 20, 3),
        random_regular_graph(rng, 27, 10),
        families.disjoint_cliques(40, 2),
        _path(14),
        families.heawood(),
    ]


def test_char_poly_fill_matches_char_poly_graph_by_graph():
    mix = _stack_mix()
    assert sorted({_prime_count(g) for g in mix}) == [1, 2, 3]
    assert all(_prime_count(g) <= spectra.CERTIFY_ABOVE_PRIMES for g in mix)
    stacked = char_poly.fill([Graph(g.adj) for g in mix])
    assert stacked == [char_poly(Graph(g.adj)) for g in mix]
    assert stacked[0].coeffs == (0, 1)  # K1
    assert stacked[1].coeffs == (0,) * 6 + (1,)  # edgeless
    matching = (1,)
    for _ in range(40):
        matching = poly_mul(matching, (-1, 0, 1))
    assert stacked[9].coeffs == matching  # (x^2 - 1)^40
    for g, cp in zip(mix[:9], stacked):
        assert cp.coeffs == faddeev_leverrier(g)


def test_kernel_refuses_mixed_orders():
    with pytest.raises(ValueError, match="one order"):
        charpoly.char_poly_mod([families.cycle(5).adj, families.cycle(6).adj], (7, 7))


def _count_passes(monkeypatch):
    """The shape of the stack of every Hessenberg pass from now on."""
    shapes = []
    kernel = charpoly._hessenberg
    monkeypatch.setattr(charpoly, "_hessenberg",
                        lambda h, p: shapes.append(h.shape) or kernel(h, p))
    return shapes


def test_prefill_runs_one_pass_per_order(monkeypatch):
    rng = random.Random(4)
    crt = _stack_mix()[2:] + [families.cycle(7), random_regular_graph(rng, 16, 6)]
    certified = families.paley(61)  # 7 primes: the certificate decides it
    assert _prime_count(certified) > spectra.CERTIFY_ABOVE_PRIMES
    shapes = _count_passes(monkeypatch)
    spectra.prefill_spectra(crt + [certified])
    orders = {g.n for g in crt}
    assert len(shapes) == len(orders) and {n for _, n, _ in shapes} == orders
    assert sum(rows for rows, _, _ in shapes) == sum(map(_prime_count, crt))
    # the spectra read the stored polynomials; only the certificate runs
    for g in crt:
        with contextlib.suppress(spectra.NonQuadraticSpectrumError):  # C7, P8, ...
            spectra.exact_spectrum(g)
    assert len(shapes) == len(orders)
    spectra.exact_spectrum(certified)
    assert shapes[-1] == (1, 61, 61)
    # a graph that holds its polynomial is not passed again
    late = families.icosahedron()
    spectra.prefill_spectra(crt + [late])
    assert shapes[len(orders) + 1 :] == [(1, 12, 12)]


def test_stacks_stay_within_the_element_budget(monkeypatch):
    matchings = [families.disjoint_cliques(40, 2) for _ in range(256)]
    shapes = _count_passes(monkeypatch)
    spectra.prefill_spectra(matchings)
    assert all(rows * n * n <= graphs.STACK_ELEMENTS for rows, n, _ in shapes)
    per = graphs.STACK_ELEMENTS // 80**2
    assert [rows for rows, _, _ in shapes] == [per] * (768 // per) + [768 % per]
    assert len({char_poly(g) for g in matchings}) == 1


def _prefill_chunk():
    """Fresh copies of a chunk: quadratic Deza graphs with b > a, two of them
    their own child (K_{3,3,3}, 3K3), and two non-quadratic ones (C7, C9)."""
    return [families.complete_multipartite([3, 3, 3]), families.disjoint_cliques(3, 3),
            families.taylor_double_cover(families.paley(5)), families.cycle(7),
            families.cycle(9)]


def test_prefill_runs_one_pass_per_order_over_a_chunk_and_its_children(monkeypatch):
    paley = families.paley(13)
    chunk = _prefill_chunk()[:4] + [paley]
    shapes = _count_passes(monkeypatch)
    report.prefill_reports(chunk)
    pairs = [deza.children(g) for g in chunk]
    # K_{3,3,3}, 3K3 and Paley(13) are each their own child, passed once
    children = [c for g, pair in zip(chunk, pairs) for c in (pair.child_a, pair.child_b)
                if c is not g]
    assert len(children) == 2 * len(chunk) - 3
    assert all(spectra.crt_route(g.n, int(g.degrees().max())) for g in chunk + children)
    rows: dict[int, int] = {}
    for g in chunk + children:
        rows[g.n] = rows.get(g.n, 0) + _prime_count(g)
    assert sorted(shapes) == sorted((count, n, n) for n, count in rows.items())
    # Paley(13) and its complement: one row per prime each
    assert rows[13] == 2 * len(charpoly.primes_for(13, 6))


def test_prefill_leaves_the_reports_no_pass_and_no_step(monkeypatch):
    chunk = _prefill_chunk()
    assert all(spectra.crt_route(g.n, int(g.degrees().max())) for g in chunk)
    assert all(deza.detect_deza(g).b > deza.detect_deza(g).a for g in chunk)
    expected = [report.build_report(Graph(g.adj), str(i)) for i, g in enumerate(chunk)]
    # a store of one table, emptied after the prefill, keeps none of the
    # chunk's: the reports read the tables the prefill stored on the graphs
    # and their children
    monkeypatch.setattr(spectra, "FACTOR_TABLES", 1)
    monkeypatch.setattr(spectra, "_TABLES", {})
    report.prefill_reports(chunk)
    spectra._TABLES.clear()
    # every parent's children are built, the non-quadratic parents' too
    assert all(deza._children.memo_key in g._facts for g in chunk)
    shapes = _count_passes(monkeypatch)
    steps = []
    step = spectra._gfp_step
    monkeypatch.setattr(spectra, "_gfp_step", lambda rows: steps.append(rows) or step(rows))
    # with the store empty, a lookup would compute a table and keep it
    tables = []
    compute = spectra._crt_tables
    monkeypatch.setattr(spectra, "_crt_tables", lambda keys: tables.append(keys) or compute(keys))
    reports = [report.build_report(g, str(i)) for i, g in enumerate(chunk)]
    assert reports == expected
    assert shapes == [] and steps == [] and tables == [] and spectra._TABLES == {}
    # every child holds its prefilled polynomial and table, also the
    # children of C7 and C9, whose spectra no report reads
    for g in chunk:
        pair = deza.children(g)
        assert all(fact.memo_key in c._facts for c in (pair.child_a, pair.child_b)
                   for fact in (char_poly, spectra._spectrum_table))
