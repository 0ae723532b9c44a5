"""Intersection arrays, antipodality, and the section-6 classifications."""

import numpy as np
import pytest

from dezakit import families
from dezakit.distreg import (
    FEASIBLE_UNBUILT,
    IntersectionArray,
    antipodal_from_spectrum,
    cosp_deza_check,
    ddg_drg_classification,
    distance3_counts,
    drg_deza_classification,
    feasible_tuple_check,
    intersection_array,
    intersection_numbers,
    is_antipodal,
    unitary_nonisotropics_check,
)
from dezakit.errors import SpectrumShapeError
from dezakit.graphs import (
    Graph,
    distance_data,
    distance_i_graph,
    is_connected,
    is_disjoint_clique_union,
)
from dezakit.verify import DRG_CORPUS, corpus


def test_intersection_arrays(heawood, icosahedron, c6, johnson63, line_petersen, taylor13, klein24):
    assert str(intersection_array(heawood)) == "{3,2,2;1,1,3}"
    assert str(intersection_array(icosahedron)) == "{5,2,1;1,2,5}"
    assert str(intersection_array(c6)) == "{2,1,1;1,1,2}"
    assert str(intersection_array(johnson63)) == "{9,4,1;1,4,9}"
    assert str(intersection_array(line_petersen)) == "{4,2,1;1,1,4}"
    assert str(intersection_array(taylor13)) == "{13,6,1;1,6,13}"
    assert str(intersection_array(klein24)) == "{7,4,1;1,2,7}"


def test_intersection_array_internal_consistency(heawood):
    ia = intersection_array(heawood)
    assert ia.k == 3 and ia.n == 14
    assert ia.k_i == (1, 3, 6, 4)
    for i in range(ia.d):
        bi = ia.b[i + 1] if i + 1 < ia.d else 0
        assert ia.a[i] + bi + ia.c[i] == ia.k


def test_distance_counts_are_the_class_sizes_of_every_vertex():
    # k_i is read off one row of the distance matrix; it must agree with the
    # recurrence k_0 = 1, k_{i+1} = k_i b_i / c_{i+1} and with every row
    graphs = [corpus()[name] for name in DRG_CORPUS] + [families.complete(1)]
    graphs += [families.cycle(n) for n in (3, 4, 9, 12)]
    graphs += [families.johnson(7, 2), families.johnson(8, 3), families.johnson(9, 4)]
    graphs += [families.kneser(7, 2), families.kneser(7, 3), families.kneser(9, 4)]
    graphs += [families.paley(q) for q in (5, 9, 13, 25, 29)]
    graphs += [families.taylor_double_cover(families.paley(q)) for q in (5, 9, 13)]
    for g in graphs:
        ia = intersection_array(g)
        assert ia is not None
        formula = [1]
        for i in range(ia.d):
            assert formula[i] * ia.b[i] % ia.c[i] == 0
            formula.append(formula[i] * ia.b[i] // ia.c[i])
        assert ia.k_i == tuple(formula)
        for row in distance_data(g).dist:
            assert np.bincount(row).tolist() == list(ia.k_i)


def test_not_distance_regular_witness(octahedron_lg):
    array, witness = intersection_numbers(octahedron_lg)
    assert array is None and witness is not None
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    array, witness = intersection_numbers(path)
    assert array is None
    with pytest.raises(ValueError, match="connected"):
        intersection_numbers(families.disjoint_cliques(2, 3))


def test_is_antipodal(heawood, icosahedron, johnson63, cube):
    assert is_antipodal(icosahedron)
    assert is_antipodal(johnson63)
    assert is_antipodal(cube)
    # the Fano incidence graph has k_3 = 4: its distance-3 graph is 4-regular
    # bipartite, not a clique union
    assert not is_antipodal(heawood)
    with pytest.raises(ValueError, match="connected"):
        is_antipodal(families.disjoint_cliques(2, 3))


def test_is_antipodal_matches_distance_graph():
    # against the definition: the distance-d graph is a union of equal cliques
    graphs = list(corpus().values()) + [families.cycle(n) for n in range(3, 13)]
    graphs += [families.johnson(8, 4), families.kneser(7, 2), families.complete(5)]
    seen = set()
    for g in graphs:
        ia = intersection_array(g) if is_connected(g) else None
        if ia is not None:
            expected = is_disjoint_clique_union(distance_i_graph(g, ia.d)) is not None
            assert is_antipodal(g) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_drg_deza_classification(heawood, icosahedron, johnson63, c7, petersen):
    assert drg_deza_classification(heawood).case == "deza-a1-zero"
    assert drg_deza_classification(c7).case == "deza-a1-zero"
    case = drg_deza_classification(icosahedron)
    assert case.case == "deza-a1-eq-c2" and case.witness["a1"] == 2
    case = drg_deza_classification(johnson63)
    assert case.case == "deza-a1-eq-c2" and case.witness["a1"] == 4
    j73 = families.johnson(7, 3)
    assert drg_deza_classification(j73).case == "not-deza"
    with pytest.raises(ValueError, match="diameter-2"):
        drg_deza_classification(petersen)
    with pytest.raises(ValueError, match="not distance-regular"):
        drg_deza_classification(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(ValueError, match="connected"):
        drg_deza_classification(families.disjoint_cliques(2, 3))


def test_ddg_classification(k444, heawood, biplane, icosahedron, klein24, octahedron_lg, petersen):
    assert ddg_drg_classification(k444).case == "complete-multipartite"
    assert ddg_drg_classification(heawood).case == "incidence-symmetric-design"
    assert ddg_drg_classification(biplane).case == "incidence-symmetric-design"
    assert ddg_drg_classification(icosahedron).case == "antipodal-d3-a1-eq-c2"
    assert ddg_drg_classification(klein24).case == "antipodal-d3-a1-eq-c2"
    # diameter 2 but not strongly regular: not distance-regular at all
    assert ddg_drg_classification(octahedron_lg).case == "not-distance-regular"
    with pytest.raises(ValueError):
        ddg_drg_classification(petersen)


def test_antipodal_from_spectrum(icosahedron, klein24, taylor13, johnson63, line_petersen, heawood):
    expected = {2: icosahedron, 6: taylor13, 4: johnson63, 1: line_petersen}
    for value, g in expected.items():
        check = antipodal_from_spectrum(g)
        assert check.divides and check.a1c2 == value
    check2 = antipodal_from_spectrum(klein24)
    assert check2.divides and check2.a1c2 == 2
    # Heawood is a DDG but its spectrum is not of the {k, sqrt(k), -1} shape
    with pytest.raises(SpectrumShapeError):
        antipodal_from_spectrum(heawood)


def test_distance3_counts(icosahedron, heawood, johnson63):
    counts, constant = distance3_counts(icosahedron)
    assert constant and counts[0] == 1
    counts, constant = distance3_counts(heawood)
    assert constant and counts[0] == 4
    counts, constant = distance3_counts(johnson63)
    assert constant and counts[0] == 1


def test_cosp_deza_check(icosahedron, johnson63, taylor13, petersen):
    assert cosp_deza_check(icosahedron, icosahedron).case == "same-intersection-numbers"
    tc5 = families.taylor_double_cover(families.cycle(5))
    assert cosp_deza_check(icosahedron, tc5).case == "same-intersection-numbers"
    t9 = families.taylor_double_cover(families.paley(9))
    case = cosp_deza_check(johnson63, t9)
    assert case.case == "same-intersection-numbers"
    assert case.witness["triangles"] == 20 * 9 * 4 // 6
    with pytest.raises(ValueError, match="d = 3"):
        cosp_deza_check(petersen, petersen)
    with pytest.raises(ValueError, match="cospectral"):
        cosp_deza_check(icosahedron, johnson63)


def test_unitary_family():
    res = unitary_nonisotropics_check(3)
    assert (res.n, res.k) == (63, 6)
    assert res.child == (63, 32, 16, 16)
    for q in (4, 5):
        res = unitary_nonisotropics_check(q)
        assert 1 + res.mult_plus + q**3 + res.mult_minus == res.n
    with pytest.raises(ValueError):
        unitary_nonisotropics_check(2)
    with pytest.raises(ValueError):
        unitary_nonisotropics_check(6)


def test_feasible_tuples():
    for tup in FEASIBLE_UNBUILT:
        assert feasible_tuple_check(*tup)
    assert not feasible_tuple_check(210, 11, 100, 1)


def test_intersection_array_validation():
    with pytest.raises(ValueError):
        IntersectionArray(2, (3, 2), (2, 3), (0, 0), (1, 3, 2))  # c1 != 1
