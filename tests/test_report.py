"""Report building, JSON round trips, expectation matching."""

import json
import sys

import pytest

from dezakit import _kernels, deza, families, graphs, spectra
from dezakit.graph6 import parse_graph6
from dezakit.graphs import Graph
from dezakit.report import (
    SCHEMA,
    build_report,
    matches_expectation,
    render_text,
    report_inconsistencies,
)


def test_report_octahedron_lg(octahedron_lg):
    rep = build_report(octahedron_lg, source="olg")
    assert rep["schema"] == SCHEMA
    assert rep["deza"] == {"n": 12, "k": 6, "b": 3, "a": 2}
    assert rep["srg"] is None
    assert rep["strongly_deza"]["verdict"] is True
    assert rep["strongly_deza"]["formula_spectra_match"] is True
    assert rep["ddg"] == {"v": 12, "k": 6, "lambda1": 2, "lambda2": 3, "m": 3, "n": 4}
    assert rep["theorems"]["singular"]["four_distinct"] is True
    assert rep["theorems"]["square_case"]["case"] == "square-i"
    assert rep["distance_regular"]["is_drg"] is False
    assert rep["distance_regular"]["ddg_case"]["case"] == "not-distance-regular"
    assert report_inconsistencies(rep) == []


def test_report_json_round_trip(heawood, c7):
    for g, name in ((heawood, "heawood"), (c7, "c7")):
        rep = build_report(g, source=name)
        assert json.loads(json.dumps(rep)) == rep


def test_report_handles_non_quadratic(c7):
    rep = build_report(c7, source="c7")
    assert rep["spectrum"] is None
    assert "non-quadratic" in rep["spectrum_error"]
    assert rep["deza"] == {"n": 7, "k": 2, "b": 1, "a": 0}
    assert rep["strongly_deza"]["verdict"] is False
    assert rep["strongly_deza"]["formula_spectra_match"] is None


def test_render_text_reports_spectrum_error(c7):
    lines = render_text(build_report(c7, source="c7")).splitlines()
    [line] = [line for line in lines if line.startswith("spectrum:")]
    assert line == (
        "spectrum: ERROR spectrum contains non-quadratic eigenvalues; "
        "unfactored residual has degree 6"
    )


def test_report_desargues_not_inconsistent(desargues):
    # Deza with six distinct eigenvalues: legitimately not strongly Deza,
    # so the eigenvalue-count classifier is skipped, not flagged
    rep = build_report(desargues, source="desargues")
    assert "skipped" in rep["theorems"]["eigenvalue_count"]
    assert rep["theorems"]["witness"]["branch"] == "halved-strongly-deza"
    assert report_inconsistencies(rep) == []


def test_report_singular_not_strongly_deza():
    # 6-regular on 10 vertices, not Deza, with 0 and irrational eigenvalues:
    # outside the singularity theorem's hypothesis, so skipped, not flagged
    g = parse_graph6("IUvj^fqNW")
    rep = build_report(g, source="IUvj^fqNW")
    assert rep["regular_degree"] == 6 and rep["deza"] is None
    assert any(e.get("value") == "0" for e in rep["spectrum"])
    assert rep["theorems"]["singular"] == {"skipped": "not strongly Deza"}
    assert report_inconsistencies(rep) == []


def test_report_two_pentagons():
    # 2.C5 is Deza (10,2,1,0) with SRG(5,2,0,1) components, which the
    # three-eigenvalue classification accepts
    g = parse_graph6("IQ`?GcGGG")
    rep = build_report(g, source="IQ`?GcGGG")
    assert rep["deza"] == {"n": 10, "k": 2, "b": 1, "a": 0}
    assert rep["theorems"]["eigenvalue_count"]["witness"]["kind"] == "union-srg"
    assert report_inconsistencies(rep) == []


def test_report_ddg_fields(heawood):
    rep = build_report(heawood, source="hw")
    assert rep["ddg"]["m"] == 2 and rep["ddg"]["n"] == 7
    assert rep["theorems"]["last_case"]["case"] == "last-i"
    assert rep["theorems"]["witness"]["branch"] == "strongly-deza"


def test_render_text_mentions_key_facts(heawood):
    text = render_text(build_report(heawood, source="hw"))
    assert "deza: (14,3,1,0)" in text
    assert "distance-regular: {3,2,2;1,1,3}" in text
    assert "(√2)^6" in text


def test_matches_expectation(heawood):
    rep = build_report(heawood, source="hw")
    assert matches_expectation(rep, {"n": 14, "ddg": {"m": 2, "n": 7}}) == []
    problems = matches_expectation(rep, {"n": 15})
    assert problems and "expected 15" in problems[0]
    problems = matches_expectation(rep, {"nosuchkey": 1})
    assert problems and "missing" in problems[0]


def _count_computations(monkeypatch, fact):
    """Swap the per-graph fact for a counting copy at every site in the
    package that holds it; returns the (graph, value) pairs it computes.
    A call computes the fact when the graph holds no stored value for it,
    so a fact that is not memoised counts once per call."""
    computed = []

    def counted(g):
        fresh = fact.__wrapped__ not in g._facts
        value = fact(g)
        if fresh:
            computed.append((g, value))
        return value

    for name, module in list(sys.modules.items()):
        if name == "dezakit" or name.startswith("dezakit."):
            for key, value in list(vars(module).items()):
                if value is fact:
                    monkeypatch.setattr(module, key, counted)
    return computed


def _record(monkeypatch, module, name, calls, arg=-1):
    """Record argument ``arg`` (default the last) of every call to module.name."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args[arg]) or original(*args))


@pytest.mark.parametrize("make, char_polys", [
    pytest.param(lambda: families.bundled_graph("klein24"), None, id="klein24"),
    # the complement child is computed; the other child is the graph itself
    pytest.param(lambda: families.paley(61), 2, id="paley-61"),
])
def test_report_computes_each_fact_once(make, char_polys, monkeypatch):
    g = Graph(make().adj)  # no fact computed yet
    m2 = _count_computations(monkeypatch, graphs.common_neighbour_matrix)
    facts = [
        _count_computations(monkeypatch, fact)
        for fact in (deza.is_strongly_deza, graphs.bipartition, graphs.components)
    ]
    distances, kernel_m2, pair_values, polys = [], [], [], []
    _record(monkeypatch, _kernels, "all_pairs_distances", distances)
    for kernel in ("class_values", "triangle_count"):
        _record(monkeypatch, _kernels, kernel, kernel_m2)
    _record(monkeypatch, _kernels, "pair_values", pair_values)
    intersections = []
    _record(monkeypatch, _kernels, "intersection_counts", intersections, arg=0)
    _record(monkeypatch, spectra, "char_poly", polys)
    report = build_report(g)
    assert report_inconsistencies(report) == []
    # once per Graph object; each graph owns its adjacency array, and the
    # lists keep them alive, so no id is reused
    assert m2 and len({id(h) for h, _ in m2}) == len(m2)
    for computed in facts:
        assert computed and len({id(h) for h, _ in computed}) == len(computed)
    assert distances and len({id(adj) for adj in distances}) == len(distances)
    # and at most once per adjacency: no equal graph is built to recompute them
    assert len({adj.tobytes() for adj in distances}) == len(distances)
    assert pair_values and len({id(a) for a in pair_values}) == len(pair_values)
    assert intersections and len({id(adj) for adj in intersections}) == len(intersections)
    assert polys and len({id(h) for h in polys}) == len(polys)
    if char_polys is not None:
        assert len(polys) == char_polys
    # the kernels read the memoised M^2 rather than multiplying it out
    assert {id(a) for a in kernel_m2 + pair_values} <= {id(value) for _, value in m2}
