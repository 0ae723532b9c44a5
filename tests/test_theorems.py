"""Formula evaluators and classifiers on concrete instances."""

from dataclasses import replace

import pytest

from conftest import folded_cube, hamming
from dezakit import families, theorems
from dezakit.deza import SrgParams, detect_deza, detect_srg
from dezakit.errors import ContradictionError, InfeasibleError, SpectrumShapeError
from dezakit.eigenvalues import Eigenvalue, Spectrum
from dezakit.graph6 import parse_graph6
from dezakit.graphs import bipartite_double, disjoint_union, halved_graphs, line_graph
from dezakit.spectra import exact_spectrum
from dezakit.theorems import (
    affine_family_params,
    check_trace_identity,
    classify_eigenvalue_count,
    classify_last_case,
    classify_square_case,
    remaining_pair_four_eig,
    remaining_pair_five_eig,
    singular_check,
    srg_eigen,
    srg_params_from_spectrum,
    srg_spectrum,
    strongly_deza_witness,
)


def _int(z):
    return Eigenvalue.integer(z)


def _root(m):
    return Eigenvalue.sqrt_pair(m)[0]


# -- SRG eigenvalue formulas ------------------------------------------------


def test_srg_eigen_integer_case():
    eigen = srg_eigen(SrgParams(10, 3, 0, 1))
    assert (eigen.r, eigen.s, eigen.f, eigen.g) == (_int(1), _int(-2), 5, 4)
    eigen = srg_eigen(SrgParams(12, 8, 4, 8))
    assert (eigen.r, eigen.s, eigen.f, eigen.g) == (_int(0), _int(-4), 9, 2)


def test_srg_eigen_conference_case():
    eigen = srg_eigen(SrgParams(13, 6, 2, 3))
    assert eigen.r == Eigenvalue.quadratic(-1, 1, 13, 2)
    assert eigen.s == eigen.r.conjugate()
    assert eigen.f == eigen.g == 6


def test_srg_eigen_infeasible():
    # identity holds but the multiplicities are not integers and the
    # conference conditions fail (disc = 25 is a square, n = 33)
    with pytest.raises(InfeasibleError):
        srg_eigen(SrgParams(33, 8, 1, 2))


def test_srg_spectrum_matches(petersen):
    assert srg_spectrum(detect_srg(petersen)) == exact_spectrum(petersen)
    assert srg_spectrum(SrgParams(14, 6, 5, 0)) == exact_spectrum(
        families.disjoint_cliques(2, 7)
    )


def test_srg_params_from_conjugate_pair(c5):
    # irrational restricted pairs: the pentagon and the Paley graph P(13)
    for g in (c5, families.paley(13)):
        assert srg_params_from_spectrum(exact_spectrum(g)) == detect_srg(g)
    assert detect_srg(c5).as_tuple() == (5, 2, 0, 1)


def test_srg_params_from_spectrum_refusals():
    # no Spectrum holds a lone irrational: a non-conjugate irrational pair is
    # refused before srg_params_from_spectrum sees it
    with pytest.raises(ValueError, match="conjugate"):
        Spectrum([(_int(1), 1), (_root(2), 1), (-_root(3), 1)])
    # and an irrational beside an integer brings its conjugate as a third value
    spec = Spectrum([(_int(2), 1), (_root(2), 1), (-_root(2), 1), (_int(-2), 1)])
    with pytest.raises(SpectrumShapeError, match="exactly two restricted"):
        srg_params_from_spectrum(spec)


# -- trace identity ----------------------------------------------------------


def test_trace_identity_octahedron_lg(octahedron_lg):
    pairing = check_trace_identity(exact_spectrum(octahedron_lg))
    assert pairing.holds
    assert (pairing.theta2, pairing.m2, pairing.m5) == (_int(2), 3, 6)
    assert pairing.theta3 == _int(0)


def test_trace_identity_icosahedron(icosahedron):
    # the absent +1 gets multiplicity zero (one zero is allowed)
    pairing = check_trace_identity(exact_spectrum(icosahedron))
    assert pairing.holds
    assert (pairing.theta2, pairing.m2, pairing.m5) == (_int(1), 0, 5)
    assert (pairing.theta3, pairing.m3, pairing.m4) == (_root(5), 3, 3)


def test_trace_identity_shape_errors(petersen):
    with pytest.raises(SpectrumShapeError):
        check_trace_identity(exact_spectrum(petersen))
    with pytest.raises(SpectrumShapeError):
        check_trace_identity(exact_spectrum(families.disjoint_cliques(3, 4)))


# -- eigenvalue-count classification ------------------------------------------


def test_classify_counts(petersen, two_k33, octahedron_lg):
    case = classify_eigenvalue_count(families.disjoint_cliques(3, 4))
    assert case.case == "prop3-2eig" and case.witness["order"] == 4
    case = classify_eigenvalue_count(two_k33)
    assert case.case == "prop3-3eig-disconn" and case.witness["kind"] == "union-kkk"
    assert classify_eigenvalue_count(petersen).case == "prop3-3eig-srg"
    assert classify_eigenvalue_count(octahedron_lg).case == "prop3-4eig"
    rook = line_graph(families.complete_multipartite([4, 4]))
    # a = 0 across components; the components' {lam, mu} lie in {a, b}
    for comp in (rook, families.cycle(5), petersen):
        case = classify_eigenvalue_count(disjoint_union([comp, comp]))
        assert case.case == "prop3-3eig-disconn" and case.witness["kind"] == "union-srg"


def test_classify_counts_flags_six_eigenvalues(desargues):
    # Deza but not strongly Deza: six distinct eigenvalues put it outside
    # the five-eigenvalue bound, which is a skip, not a contradiction
    assert detect_deza(desargues) is not None
    with pytest.raises(ValueError, match="6 distinct eigenvalues") as info:
        classify_eigenvalue_count(desargues)
    assert not isinstance(info.value, ContradictionError)


def test_classify_counts_needs_deza():
    with pytest.raises(ValueError):
        classify_eigenvalue_count(families.johnson(7, 3))


# -- spectral characterisation witness ----------------------------------------


def test_witness_branches(octahedron_lg, heawood, desargues, c6):
    assert strongly_deza_witness(octahedron_lg).branch == "strongly-deza"
    w = strongly_deza_witness(heawood)
    assert w.branch == "strongly-deza" and w.child_b_components == 2
    assert w.halved == ("complete", "complete")
    assert strongly_deza_witness(desargues).branch == "halved-strongly-deza"
    assert strongly_deza_witness(c6).branch == "strongly-deza"


def test_witness_strongly_regular_halves():
    # the halves are strongly regular with lambda = mu, so Deza with b = a,
    # which is_strongly_deza rejects by convention: a degeneration
    for g, half in ((hamming(5, 2), (16, 10, 6, 6)), (folded_cube(8), (64, 28, 12, 12))):
        assert {detect_srg(h).as_tuple() for h in halved_graphs(g)} == {half}
        w = strongly_deza_witness(g)
        assert w.branch == "degenerate" and w.halved == ("strongly-regular",) * 2


def test_witness_preconditions(petersen):
    with pytest.raises(ValueError, match="connected"):
        strongly_deza_witness(families.disjoint_cliques(3, 4))
    with pytest.raises(ValueError, match="b > a"):
        strongly_deza_witness(line_graph(families.complete_multipartite([4, 4])))
    with pytest.raises(ValueError, match="Deza"):
        strongly_deza_witness(families.johnson(7, 3))


# -- square/non-square trichotomy ----------------------------------------------


def test_square_cases(octahedron_lg, icosahedron, heawood, biplane, petersen, desargues):
    assert classify_square_case(octahedron_lg).case == "square-i"
    case = classify_square_case(icosahedron)
    assert case.case == "square-ii"
    assert case.witness["pair_mult"] == case.witness["half_child_mult"] == 3
    assert classify_square_case(heawood).case == "square-iii"
    assert classify_square_case(biplane).case == "square-iii"
    # outside the hypotheses: strongly Deza with three distinct eigenvalues,
    # and Deza but not strongly Deza
    with pytest.raises(ValueError, match="fewer than four distinct eigenvalues"):
        classify_square_case(petersen)
    with pytest.raises(ValueError, match="not strongly Deza"):
        classify_square_case(desargues)


def test_square_case_consistency(johnson63, line_petersen, taylor13, klein24, cube):
    for g in (johnson63, line_petersen, taylor13, klein24, cube):
        case = classify_square_case(g)
        assert case.case in ("square-i", "square-ii", "square-iii")
        if case.case == "square-i":
            assert exact_spectrum(g).is_integral()


# -- eigenvalue relations ------------------------------------------------------


def test_five_eig_relation_values():
    assert remaining_pair_five_eig(14, 3, -3, 0, 1) == (_root(2), -_root(2))
    assert remaining_pair_five_eig(12, 6, 2, 3, 6) == (_int(0), _int(0))
    # both integer pairings of J(6,3) are consistent
    assert remaining_pair_five_eig(20, 9, 3, 5, 5) == (_int(1), _int(-1))
    assert remaining_pair_five_eig(20, 9, -1, 0, 9) == (_int(3), _int(-3))


def test_five_eig_relation_errors():
    with pytest.raises(InfeasibleError, match="integer"):
        remaining_pair_five_eig(12, 5, _root(5), 3, 3)
    with pytest.raises(InfeasibleError, match="room"):
        remaining_pair_five_eig(10, 3, 1, 5, 4)
    with pytest.raises(InfeasibleError, match="negative"):
        remaining_pair_five_eig(14, 3, -3, 3, 3)


def test_four_eig_relation_values():
    assert remaining_pair_four_eig(14, 3, -3, 1) == (_root(2), -_root(2))
    assert remaining_pair_four_eig(12, 5, -1, 5) == (_root(5), -_root(5))
    assert remaining_pair_four_eig(20, 9, -1, 9) == (_int(3), _int(-3))
    assert remaining_pair_four_eig(28, 13, -1, 13) == (_root(13), -_root(13))


def test_four_eig_relation_errors():
    with pytest.raises(InfeasibleError, match="-k"):
        remaining_pair_four_eig(14, 3, -3, 2)
    with pytest.raises(InfeasibleError, match="at most -1"):
        remaining_pair_four_eig(14, 3, 3, 1)


# -- singular check -------------------------------------------------------------


def test_singular_check(octahedron_lg, icosahedron, k444):
    res = singular_check(octahedron_lg)
    assert res.singular and res.integral and res.four_distinct
    res = singular_check(icosahedron)
    assert not res.singular
    # degenerate strongly regular shape: singular with three distinct values
    res = singular_check(k444)
    assert res.singular and res.integral and res.distinct == 3 and not res.four_distinct
    # 6-regular, not Deza, with 0 and irrational eigenvalues: outside the
    # theorem, not a counterexample to it
    g = parse_graph6("IUvj^fqNW")
    assert exact_spectrum(g).contains_value(0)
    with pytest.raises(ValueError, match="not strongly Deza"):
        singular_check(g)


# -- affine family ---------------------------------------------------------------


def test_affine_family(octahedron_lg):
    fam = affine_family_params(2, 2)
    assert fam.params.as_tuple() == (12, 6, 2, 3, 3, 4)
    assert fam.theta == 2
    # the (2,2) eigenvalues +-2 and 0 appear in the line graph's spectrum
    spec = exact_spectrum(octahedron_lg)
    for value in (fam.theta, 0, -fam.theta):
        assert spec.multiplicity(_int(value)) > 0
    assert affine_family_params(3, 2).params.as_tuple() == (36, 24, 15, 16, 4, 9)
    assert affine_family_params(2, 3).params.as_tuple() == (56, 28, 12, 14, 7, 8)


def test_affine_family_errors():
    with pytest.raises(InfeasibleError):
        affine_family_params(2, 1)
    with pytest.raises(InfeasibleError):
        affine_family_params(6, 2)


# -- final four-eigenvalue classification -----------------------------------------


def test_last_cases(heawood, icosahedron, johnson63, taylor13):
    case = classify_last_case(heawood)
    assert case.case == "last-i"
    assert case.witness["theta3"] == "√2" and case.witness["m3"] == 6
    case = classify_last_case(icosahedron)
    assert case.case == "last-ii"
    assert case.witness["theta3"] == "√5" and case.witness["m3"] == 3
    case = classify_last_case(johnson63)
    assert case.case == "last-ii" and case.witness["m2"] == 9
    assert classify_last_case(taylor13).case == "last-ii"


def test_last_case_shape_errors(octahedron_lg, petersen):
    with pytest.raises(SpectrumShapeError):
        # no opposite pair with equal multiplicities
        classify_last_case(octahedron_lg)
    with pytest.raises(SpectrumShapeError):
        classify_last_case(petersen)
    with pytest.raises(ValueError, match="b > a"):
        # the 4x4 rook's graph is strongly regular with lambda = mu, so b = a
        classify_last_case(line_graph(families.complete_multipartite([4, 4])))


# -- one fault per contradiction ----------------------------------------------


def _heawood_child_a(**fields):
    """A fault in srg_eigen on the Heawood graph's child A, whose true
    values are r = 0, s = -7, f = 12, g = 1."""
    return lambda real: lambda params: replace(real(params), **fields)


def _verdict(verdict):
    return lambda real: lambda g: replace(real(g), verdict=verdict)


@pytest.mark.parametrize("run, name, fault, message", [
    pytest.param(
        lambda: classify_eigenvalue_count(families.disjoint_cliques(3, 4)),
        "is_disjoint_clique_union", lambda real: lambda g: None,
        "two-eigenvalue graph is not a clique union", id="count-cliques"),
    pytest.param(
        lambda: classify_eigenvalue_count(families.petersen()),
        "detect_srg", lambda real: lambda g: None,
        "connected three-eigenvalue graph is not an SRG", id="count-srg"),
    pytest.param(
        lambda: classify_eigenvalue_count(disjoint_union([families.petersen()] * 2)),
        "detect_srg", lambda real: lambda g: None,
        "disconnected three-eigenvalue structure", id="count-components"),
    pytest.param(
        lambda: strongly_deza_witness(families.octahedron_line_graph()),
        "is_strongly_deza", _verdict(False),
        "connected non-bipartite case must be strongly Deza", id="witness-non-bipartite"),
    pytest.param(
        # the halves of the Desargues graph are T(5), strongly regular with
        # lambda = 3 != mu = 4, so with no verdict they are "neither"
        lambda: strongly_deza_witness(bipartite_double(families.petersen())),
        "is_strongly_deza", _verdict(False),
        "neither graph nor halves strongly Deza", id="witness-bipartite"),
    pytest.param(
        lambda: classify_square_case(families.heawood()),
        "srg_eigen", _heawood_child_a(r=Eigenvalue.quadratic(-1, 1, 5, 2)),
        "a strongly Deza child must be integral", id="square-integral-child"),
    pytest.param(
        lambda: classify_square_case(families.heawood()),
        "srg_eigen", _heawood_child_a(r=_int(3)),  # theta3^2 = 2 - 3
        "negative squared eigenvalue", id="square-negative"),
    pytest.param(
        lambda: classify_square_case(families.heawood()),
        "srg_eigen", _heawood_child_a(r=_int(1)),  # theta3^2 = 1, not 2
        "matches neither formula value", id="square-formula"),
    pytest.param(
        lambda: classify_square_case(families.heawood()),
        "srg_eigen", _heawood_child_a(r=_int(-1), s=_int(0)),  # 3 and 2
        "both formula values are non-squares", id="square-both-non-squares"),
    pytest.param(
        lambda: classify_square_case(families.heawood()),
        "srg_eigen", _heawood_child_a(r=_int(2), s=_int(0)),  # 0 and 2
        "partner value must be a nonzero square", id="square-zero-partner"),
    pytest.param(
        lambda: classify_square_case(families.heawood()),
        "srg_eigen", _heawood_child_a(f=14),
        "must both equal half of 14", id="square-multiplicities"),
    pytest.param(
        # C8 is Deza, not strongly Deza, and has 0 and +-sqrt(2) in its spectrum
        lambda: singular_check(families.cycle(8)),
        "is_strongly_deza", _verdict(True),
        "singular strongly Deza spectra must be integral", id="singular-integral"),
])
def test_each_contradiction_fires_on_one_fault(run, name, fault, message, monkeypatch):
    # every graph lies inside the hypotheses; one computation is made wrong,
    # and the comparison that guards it must report a contradiction
    monkeypatch.setattr(theorems, name, fault(getattr(theorems, name)))
    with pytest.raises(ContradictionError, match=message):
        run()
