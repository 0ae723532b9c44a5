"""Constructors: parameters and spectra pinned for every family."""

import hashlib
import random

import pytest

from conftest import random_graph
from dezakit import families
from dezakit.deza import DezaParams, SrgParams, detect_deza, detect_srg
from dezakit.eigenvalues import Eigenvalue, Spectrum
from dezakit.graph6 import write_graph6
from dezakit.graphs import is_disjoint_clique_union, line_graph, triangle_count
from dezakit.spectra import exact_spectrum


def _spec(pairs):
    return Spectrum(pairs)


def _int(z):
    return Eigenvalue.integer(z)


def test_disjoint_cliques():
    g = families.disjoint_cliques(3, 4)
    assert exact_spectrum(g) == _spec([(_int(3), 3), (_int(-1), 9)])
    assert families.disjoint_cliques(1, 2) == families.complete(2)
    assert exact_spectrum(families.disjoint_cliques(2, 7)) == _spec(
        [(_int(6), 2), (_int(-1), 12)]
    )
    with pytest.raises(ValueError):
        families.disjoint_cliques(2, 1)
    with pytest.raises(ValueError):
        families.disjoint_cliques(0, 3)


def test_complete_multipartite():
    k444 = families.complete_multipartite([4, 4, 4])
    assert exact_spectrum(k444) == _spec([(_int(8), 1), (_int(0), 9), (_int(-4), 2)])
    assert exact_spectrum(families.complete_multipartite([3, 3])) == _spec(
        [(_int(3), 1), (_int(0), 4), (_int(-3), 1)]
    )
    # johnson(4, 2) is the octahedron in another labelling
    octa = families.complete_multipartite([2, 2, 2])
    j42 = families.johnson(4, 2)
    assert exact_spectrum(octa) == exact_spectrum(j42)
    from dezakit.graphs import complement

    assert is_disjoint_clique_union(complement(j42)) == (3, 2)
    with pytest.raises(ValueError):
        families.complete_multipartite([3])
    with pytest.raises(ValueError):
        families.complete_multipartite([2, 0])


def test_kneser():
    assert detect_srg(families.petersen()) == SrgParams(10, 3, 0, 1)
    assert is_disjoint_clique_union(families.kneser(4, 2)) == (3, 2)
    assert is_disjoint_clique_union(families.kneser(6, 3)) == (10, 2)
    with pytest.raises(ValueError):
        families.kneser(3, 2)


def test_johnson():
    j63 = families.johnson(6, 3)
    assert j63.n == 20 and j63.regular_degree() == 9
    assert exact_spectrum(j63) == _spec(
        [(_int(9), 1), (_int(3), 5), (_int(-1), 9), (_int(-3), 5)]
    )
    assert families.johnson(5, 1) == families.complete(5)
    with pytest.raises(ValueError):
        families.johnson(3, 4)


def test_icosahedron():
    ico = families.icosahedron()
    root5 = Eigenvalue.sqrt_pair(5)[0]
    assert exact_spectrum(ico) == _spec(
        [(_int(5), 1), (root5, 3), (_int(-1), 5), (-root5, 3)]
    )
    assert triangle_count(ico) == 20
    assert detect_deza(ico) == DezaParams(12, 5, 2, 0)


def test_paley():
    assert families.paley(5) == families.cycle(5)
    assert detect_srg(families.paley(13)) == SrgParams(13, 6, 2, 3)
    assert detect_srg(families.paley(9)) == SrgParams(9, 4, 1, 2)
    assert detect_srg(families.paley(25)) == SrgParams(25, 12, 5, 6)
    assert detect_srg(families.paley(49)) == SrgParams(49, 24, 11, 12)
    with pytest.raises(ValueError, match="mod 4"):
        families.paley(8)
    with pytest.raises(ValueError, match="prime power"):
        families.paley(21)


def test_paley_squares_of_primes():
    assert detect_srg(families.paley(121)) == SrgParams(121, 60, 29, 30)
    assert detect_srg(families.paley(169)) == SrgParams(169, 84, 41, 42)
    for q in (81, 125):
        with pytest.raises(ValueError, match="p\\^2"):
            families.paley(q)


def _construction_grid():
    primes = [q for q in range(5, 258, 4) if all(q % d for d in range(2, q))]
    for q in primes + [9, 25, 49]:
        yield families.paley(q)
    for n in range(1, 11):
        for k in range(1, n + 1):
            yield families.johnson(n, k)
        for k in range(n // 2 + 1):
            yield families.kneser(n, k)
    rng = random.Random(8)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 14), rng.random())
        if g.edge_count():
            yield line_graph(g)


def test_construction_vertex_order_is_frozen():
    """One digest over the graph6 of Paley, Johnson, Kneser and line graphs,
    so any change of vertex order shows."""
    digest = hashlib.sha256()
    count = 0
    for g in _construction_grid():
        digest.update(write_graph6(g).encode("ascii") + b"\n")
        count += 1
    assert count == 298
    assert digest.hexdigest() == (
        "c106dae503a6596d3716ecd0f49d5831e2a6df5b55aef7879bea86527fa98c17"
    )


def test_prime_power():
    assert families.prime_power(27) == (3, 3)
    assert families.prime_power(16) == (2, 4)
    assert families.prime_power(7) == (7, 1)
    assert families.prime_power(12) is None
    assert families.prime_power(1) is None


def test_taylor_double_cover(icosahedron):
    t13 = families.taylor_double_cover(families.paley(13))
    assert t13.n == 28 and t13.regular_degree() == 13
    root13 = Eigenvalue.sqrt_pair(13)[0]
    assert exact_spectrum(t13) == _spec(
        [(_int(13), 1), (root13, 7), (_int(-1), 13), (-root13, 7)]
    )
    tc5 = families.taylor_double_cover(families.cycle(5))
    assert tc5.n == 12 and tc5.regular_degree() == 5
    assert exact_spectrum(tc5) == exact_spectrum(icosahedron)
    t9 = families.taylor_double_cover(families.paley(9))
    assert t9.n == 20 and t9.regular_degree() == 9
    assert exact_spectrum(t9) == exact_spectrum(families.johnson(6, 3))
    with pytest.raises(ValueError, match="2\\*mu"):
        families.taylor_double_cover(families.petersen())
    # the vertex order is frozen, up to the cap's taylor-paley 121
    bases = [families.paley(q) for q in (5, 9, 13, 121)] + [families.cycle(5)]
    lines = "".join(write_graph6(families.taylor_double_cover(g)) + "\n" for g in bases)
    assert hashlib.sha256(lines.encode("ascii")).hexdigest() == (
        "6386b2a23f05d0cf6cb0ef8d9fcc74a81236fbc6a38ad5cfdabbbe89cfba4abb"
    )


def test_symmetric_design_incidence(heawood, biplane, cube):
    root2 = Eigenvalue.sqrt_pair(2)[0]
    assert exact_spectrum(heawood) == _spec(
        [(_int(3), 1), (root2, 6), (-root2, 6), (_int(-3), 1)]
    )
    root3 = Eigenvalue.sqrt_pair(3)[0]
    assert exact_spectrum(biplane) == _spec(
        [(_int(5), 1), (root3, 10), (-root3, 10), (_int(-5), 1)]
    )
    # trivial 2-(4,3,2) design: K_{4,4} minus a perfect matching (the cube)
    assert exact_spectrum(cube) == _spec(
        [(_int(3), 1), (_int(1), 3), (_int(-1), 3), (_int(-3), 1)]
    )
    with pytest.raises(ValueError, match="difference set"):
        families.symmetric_design_incidence(7, (1, 2, 3))
    with pytest.raises(ValueError, match="identity"):
        families.symmetric_design_incidence(8, (1, 2, 4))


def test_octahedron_line_graph(octahedron_lg):
    assert detect_deza(octahedron_lg) == DezaParams(12, 6, 3, 2)
    assert octahedron_lg.n == 12 and octahedron_lg.regular_degree() == 6


def test_bundled_klein(klein24):
    assert klein24.n == 24 and klein24.regular_degree() == 7
    root7 = Eigenvalue.sqrt_pair(7)[0]
    assert exact_spectrum(klein24) == _spec(
        [(_int(7), 1), (root7, 8), (_int(-1), 7), (-root7, 8)]
    )
    assert detect_deza(klein24) == DezaParams(24, 7, 2, 0)
    with pytest.raises(ValueError, match="unknown bundled"):
        families.bundled_graph("petersen")


def test_construct_catalog():
    g = families.construct("johnson", ["6", "3"])
    assert g == families.johnson(6, 3)
    assert families.construct("multipartite", ["2", "2", "2"]).n == 6
    assert families.construct("petersen", []).n == 10
    with pytest.raises(ValueError, match="unknown family"):
        families.construct("hypercube", ["3"])
    with pytest.raises(ValueError, match="expects arguments"):
        families.construct("johnson", ["6"])
    with pytest.raises(ValueError):
        families.construct("multipartite", [])
