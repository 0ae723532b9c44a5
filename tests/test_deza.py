"""Deza detection, children, strongly-Deza and divisible-design recognition,
and the two independent child-spectrum routes."""

import numpy as np
import pytest

from dezakit import families
from dezakit.deza import (
    DdgParams,
    DezaParams,
    SrgParams,
    child_spectra_formula,
    children,
    detect_deza,
    detect_srg,
    is_divisible_design,
    is_strongly_deza,
    verify_child_formula,
)
from dezakit.eigenvalues import Eigenvalue, Spectrum
from dezakit.graphs import Graph, is_disjoint_clique_union, line_graph
from dezakit.spectra import exact_spectrum


def _spec(pairs):
    return Spectrum(pairs)


def test_param_validation():
    with pytest.raises(ValueError):
        DezaParams(5, 2, 1, 3)  # a > b
    with pytest.raises(ValueError):
        SrgParams(16, 6, 3, 2)  # path-count identity fails
    with pytest.raises(ValueError):
        DdgParams(12, 6, 2, 3, 3, 5)  # 3*5 != 12


def test_detect_deza_examples(octahedron_lg, heawood, c5, c6):
    assert detect_deza(octahedron_lg) == DezaParams(12, 6, 3, 2)
    assert detect_deza(heawood) == DezaParams(14, 3, 1, 0)
    assert detect_deza(c6) == DezaParams(6, 2, 1, 0)
    assert detect_deza(c5) == DezaParams(5, 2, 1, 0)
    assert detect_deza(families.cycle(4)) == DezaParams(4, 2, 2, 0)
    # not regular / complete / edgeless / three values
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert detect_deza(star) is None
    assert detect_deza(families.complete(5)) is None
    assert detect_deza(Graph(np.zeros((4, 4), dtype=np.uint8))) is None
    assert detect_deza(families.johnson(7, 3)) is None  # counts {0, 4, 5}


def test_detect_srg(petersen, c6):
    assert detect_srg(petersen) == SrgParams(10, 3, 0, 1)
    assert detect_srg(families.paley(13)) == SrgParams(13, 6, 2, 3)
    assert detect_srg(c6) is None
    # disconnected class-constant unions qualify (children convention)
    assert detect_srg(families.disjoint_cliques(2, 7)) == SrgParams(14, 6, 5, 0)
    assert detect_srg(families.complete(6)) is None
    # every SRG is Deza with {a, b} = {lambda, mu}
    for g in (petersen, families.paley(13), families.paley(9)):
        srg = detect_srg(g)
        deza = detect_deza(g)
        assert {deza.a, deza.b} == {srg.lam, srg.mu}


def test_children_octahedron_line_graph(octahedron_lg):
    params = detect_deza(octahedron_lg)
    pair = children(octahedron_lg)
    assert is_disjoint_clique_union(pair.child_a) == (3, 4)
    assert exact_spectrum(pair.child_a) == _spec(
        [(Eigenvalue.integer(3), 3), (Eigenvalue.integer(-1), 9)]
    )
    assert exact_spectrum(pair.child_b) == _spec(
        [(Eigenvalue.integer(8), 1), (Eigenvalue.integer(0), 9), (Eigenvalue.integer(-4), 2)]
    )


def test_children_heawood(heawood):
    pair = children(heawood)
    assert exact_spectrum(pair.child_a) == _spec(
        [(Eigenvalue.integer(7), 1), (Eigenvalue.integer(0), 12), (Eigenvalue.integer(-7), 1)]
    )
    assert is_disjoint_clique_union(pair.child_b) == (2, 7)


def test_children_matrix_identity(octahedron_lg, heawood, icosahedron):
    for g in (octahedron_lg, heawood, icosahedron):
        params = detect_deza(g)
        pair = children(g)
        m2 = g.adj.astype(np.int64) @ g.adj.astype(np.int64)
        lhs = (
            params.a * pair.child_a.adj.astype(np.int64)
            + params.b * pair.child_b.adj.astype(np.int64)
            + params.k * np.eye(g.n, dtype=np.int64)
        )
        assert np.array_equal(m2, lhs)
        assert np.array_equal(
            pair.child_a.adj + pair.child_b.adj + np.eye(g.n, dtype=np.uint8),
            np.ones((g.n, g.n), dtype=np.uint8),
        )


def test_children_equal_parameter_convention():
    rook = line_graph(families.complete_multipartite([4, 4]))
    params = detect_deza(rook)
    assert params == DezaParams(16, 6, 2, 2)
    pair = children(rook)
    assert pair.child_a.is_complete()
    assert pair.child_b.is_edgeless()


def test_children_need_a_deza_graph():
    # irregular, complete, edgeless, and regular with three common-neighbour
    # counts (the triangular prism: 0 on rungs, 1 in triangles, 2 otherwise)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    edgeless = Graph(np.zeros((4, 4), dtype=np.uint8))
    for g in (star, families.complete(5), edgeless, prism):
        assert detect_deza(g) is None
        with pytest.raises(ValueError, match="Deza graph"):
            children(g)


def test_is_strongly_deza(octahedron_lg, icosahedron, c6, k444):
    res = is_strongly_deza(octahedron_lg)
    assert res.verdict
    assert res.child_a_srg == SrgParams(12, 3, 2, 0)
    assert res.child_b_srg == SrgParams(12, 8, 4, 8)
    assert is_strongly_deza(icosahedron).verdict
    assert is_strongly_deza(k444).verdict
    # C6's children are K_{3,3} and two triangles, both class-constant
    res = is_strongly_deza(c6)
    assert res.verdict
    assert res.child_a_srg == SrgParams(6, 3, 0, 3)
    assert res.child_b_srg == SrgParams(6, 2, 1, 0)
    # b = a rejected even though such graphs are strongly regular
    rook = line_graph(families.complete_multipartite([4, 4]))
    assert not is_strongly_deza(rook).verdict
    # Deza but one child fails: the 8-cycle is not even Deza; use C7's child
    assert not is_strongly_deza(families.cycle(7)).verdict


def test_is_divisible_design(octahedron_lg, heawood, petersen, icosahedron):
    assert is_divisible_design(octahedron_lg) == DdgParams(12, 6, 2, 3, 3, 4)
    assert is_divisible_design(heawood) == DdgParams(14, 3, 1, 0, 2, 7)
    assert is_divisible_design(icosahedron) == DdgParams(12, 5, 0, 2, 6, 2)
    assert is_divisible_design(petersen) is None
    assert is_divisible_design(families.disjoint_cliques(3, 4)) == DdgParams(
        12, 3, 2, 0, 3, 4
    )


def test_child_spectra_formula_octahedron(octahedron_lg):
    params = detect_deza(octahedron_lg)
    spec_a, spec_b = child_spectra_formula(exact_spectrum(octahedron_lg), params)
    assert spec_a == _spec([(Eigenvalue.integer(3), 3), (Eigenvalue.integer(-1), 9)])
    assert spec_b == _spec(
        [(Eigenvalue.integer(8), 1), (Eigenvalue.integer(0), 9), (Eigenvalue.integer(-4), 2)]
    )


def test_child_spectra_formula_bipartite_exception(heawood):
    # -k contributes its own multiplicity-1 class; +k is principal
    spec_a, spec_b = child_spectra_formula(exact_spectrum(heawood), detect_deza(heawood))
    assert spec_a == _spec(
        [(Eigenvalue.integer(7), 1), (Eigenvalue.integer(0), 12), (Eigenvalue.integer(-7), 1)]
    )
    assert spec_b == _spec([(Eigenvalue.integer(6), 2), (Eigenvalue.integer(-1), 12)])


def test_child_spectra_formula_srg(petersen):
    # children of an SRG are the graph itself and its complement
    spec_a, spec_b = child_spectra_formula(exact_spectrum(petersen), detect_deza(petersen))
    assert spec_a == exact_spectrum(petersen)
    assert spec_b == _spec(
        [(Eigenvalue.integer(6), 1), (Eigenvalue.integer(1), 4), (Eigenvalue.integer(-2), 5)]
    )


def test_child_spectra_formula_requires_distinct():
    rook = line_graph(families.complete_multipartite([4, 4]))
    with pytest.raises(ValueError, match="b > a"):
        child_spectra_formula(exact_spectrum(rook), detect_deza(rook))


def test_verify_child_formula(octahedron_lg, icosahedron, taylor13, c5, c7):
    assert verify_child_formula(octahedron_lg)
    # integral children despite the parent's irrational eigenvalues
    assert verify_child_formula(icosahedron)
    assert verify_child_formula(taylor13)
    # pentagon: children are pentagons, formula still exact (non-integral)
    assert verify_child_formula(c5)
    with pytest.raises(ValueError):
        verify_child_formula(families.complete(4))
    # detection errors propagate: C7 is Deza but its spectrum is cubic
    from dezakit.spectra import NonQuadraticSpectrumError

    with pytest.raises(NonQuadraticSpectrumError):
        verify_child_formula(c7)
