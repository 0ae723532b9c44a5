"""Report building, JSON round trips, expectation matching."""

import functools
import gc
import json
import random
import sys

import numpy as np
import pytest

from dezakit import _kernels, charpoly, deza, distreg, families, graphs, report, spectra
from dezakit.graph6 import parse_graph6
from dezakit.graphs import Graph, disjoint_union
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


def test_inconsistencies_read_each_attempted_entry_in_order(heawood, c5):
    # every entry _attempt can write: the formula flag first, then the two
    # distance-regular cases, then the theorems in report order
    rep = build_report(heawood, source="heawood")
    rep["strongly_deza"]["formula_spectra_match"] = False
    rep["distance_regular"]["deza_case"] = {"contradiction": "d"}
    rep["distance_regular"]["ddg_case"] = {"contradiction": "g"}
    rep["theorems"]["singular"] = {"contradiction": "s"}
    rep["theorems"]["witness"] = {"contradiction": "w"}
    assert report_inconsistencies(rep) == [
        "child spectra formula disagrees with constructed children",
        "distance_regular.deza_case: d", "distance_regular.ddg_case: g",
        "theorems.singular: s", "theorems.witness: w",
    ]
    # a disconnected graph has no distance-regular entry
    rep = build_report(disjoint_union([c5, c5]), source="2c5")
    assert rep["distance_regular"] is None
    rep["theorems"]["eigenvalue_count"] = {"contradiction": "e"}
    assert report_inconsistencies(rep) == ["theorems.eigenvalue_count: e"]


def test_a_report_leaves_no_cyclic_garbage():
    # Paley(13) is strongly regular with lambda != mu, so it is one of its
    # own children; its report, once dropped, must be freed by reference
    # counting alone, with nothing for the cyclic collector to find
    gc.collect()
    g = Graph(families.paley(13).adj)
    assert deza.children(g).child_a is g
    build_report(g)
    del g
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        graphs_found = [obj for obj in gc.garbage if isinstance(obj, Graph)]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert graphs_found == []


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

    @functools.wraps(fact)  # keeps memo_key and fill, which fill the fact's memo
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


def _batches(monkeypatch):
    """Per structural fact, the (graph, value) pairs its batch computes from
    now on.  Every structural batch runs through graphs.by_order, with a run
    function defined inside the batch, so the qualified name of that
    function begins with the fact's name."""
    computed = {}
    by_order = graphs.by_order

    def spy(run, gs):
        values = by_order(run, gs)
        computed.setdefault(run.__qualname__.partition(".")[0], []).extend(zip(gs, values))
        return values

    for name, module in list(sys.modules.items()):
        if name == "dezakit" or name.startswith("dezakit."):
            if vars(module).get("by_order") is by_order:
                monkeypatch.setattr(module, "by_order", spy)
    return computed


def _matrices(stacks):
    """The matrices of the recorded kernel stacks, one list."""
    return [matrix for stack in stacks for matrix in stack]


def _unique(matrices) -> bool:
    """No two of the matrices hold the same entries."""
    return len({m.tobytes() for m in matrices}) == len(matrices)


@pytest.mark.parametrize("make, hessenberg_passes", [
    pytest.param(lambda: families.bundled_graph("klein24"), None, id="klein24"),
    # the complement child is computed; the other child is the graph itself
    pytest.param(lambda: families.paley(61), 2, id="paley-61"),
])
def test_report_computes_each_fact_once(make, hessenberg_passes, monkeypatch):
    g = Graph(make().adj)  # no fact computed yet
    # M^2 is computed by the stacked product, whichever fact asks for it
    batches = _batches(monkeypatch)
    # the M^2s handed out for each kernel call's stack
    handed = []
    fill = graphs.common_neighbour_matrix.fill

    def recorded_fill(gs):
        values = fill(gs)
        handed.append(values)
        return values

    monkeypatch.setattr(graphs.common_neighbour_matrix, "fill", recorded_fill)
    facts = [
        _count_computations(monkeypatch, fact)
        for fact in (deza.is_strongly_deza, graphs.bipartition, graphs.components)
    ]
    # each kernel call records its stack of adjacency matrices or of M^2s
    distances, class_values, triangles, polys = [], [], [], []
    _record(monkeypatch, _kernels, "all_pairs_distances", distances)
    _record(monkeypatch, _kernels, "class_values", class_values)
    _record(monkeypatch, _kernels, "triangle_count", triangles)
    read = []  # (the M^2s last handed out, the M^2 stack) of each call
    for name in ("class_values", "triangle_count"):
        def spy(adjs, m2s, original=getattr(_kernels, name)):
            read.append((handed[-1], m2s))
            return original(adjs, m2s)

        monkeypatch.setattr(_kernels, name, spy)
    intersections = []
    _record(monkeypatch, _kernels, "intersection_counts", intersections, arg=0)
    # det(xI - M) mod primes: the certificate's one prime, or char_poly's
    for module in (spectra, charpoly):
        _record(monkeypatch, module, "char_poly_mod", polys, arg=0)
    report = build_report(g)
    assert report_inconsistencies(report) == []
    m2 = batches["common_neighbour_matrix"]
    # once per Graph object; each graph owns its adjacency array, and the
    # lists keep them alive, so no id is reused
    assert m2 and len({id(h) for h, _ in m2}) == len(m2)
    for computed in facts:
        assert computed and len({id(h) for h, _ in computed}) == len(computed)
    # a graph's matrix is in one stack of one call at most, and no equal
    # graph is built to recompute its distances
    assert distances and _unique(_matrices(distances))
    # one scan of M^2's values per graph serves both the Deza and the SRG test
    assert class_values and _unique(_matrices(class_values))
    assert intersections and _unique(_matrices(intersections))
    # each pass is on another graph's adjacency array
    assert polys and len({id(adjs[0]) for adjs in polys}) == len(polys)
    if hessenberg_passes is not None:
        assert len(polys) == hessenberg_passes
    # the kernels read the memoised M^2 rather than multiplying it out: each
    # call's stack is made of the matrices handed out just before it, and
    # those are the very arrays the stacked product stored
    memo = {id(value) for _, value in m2}
    assert read and len(read) == len(handed)
    for matrices, stack in read:
        assert all(id(m) in memo for m in matrices)
        assert np.array_equal(stack, np.array(matrices))


#: the structural facts, each declared by its batch
_STRUCTURAL_FACTS = {"degree_vector", "distance_data", "common_neighbour_matrix",
                     "triangle_count", "_class_values", "intersection_numbers"}

_KERNELS = ("all_pairs_distances", "class_values", "triangle_count", "intersection_counts")


def _kernel_stacks(monkeypatch):
    """Per structural kernel, the stack of adjacency matrices of each call
    from now on."""
    stacks = {name: [] for name in _KERNELS}
    for name, calls in stacks.items():
        _record(monkeypatch, _kernels, name, calls, arg=0)
    return stacks


def _structural_chunk():
    """Fresh graphs of orders 7 to 13: Deza graphs with b > a whose children
    the prefill builds, non-quadratic ones (C7, C9), distance-regular graphs
    of diameters 2 and 5, regular graphs failing at distances 1 and 2, the
    path P10 (irregular), C5 + C5 (disconnected), K4 and an edgeless graph."""
    return [
        families.complete_multipartite([3, 3, 3]), families.disjoint_cliques(3, 3),
        families.taylor_double_cover(families.paley(5)), families.cycle(7), families.cycle(9),
        families.petersen(), families.cycle(10), parse_graph6("ImW{~?feW"),
        parse_graph6("ILh?kCDQG"), Graph.from_edges(10, [(v, v + 1) for v in range(9)]),
        graphs.disjoint_union([families.cycle(5), families.cycle(5)]), families.paley(13),
        families.complete(4), Graph(np.zeros((8, 8), dtype=np.uint8)),
    ]


def test_prefill_leaves_the_reports_no_structural_kernel(monkeypatch):
    chunk = _structural_chunk()
    expected = [build_report(Graph(g.adj), str(i)) for i, g in enumerate(chunk)]
    stacks = _kernel_stacks(monkeypatch)
    with pytest.MonkeyPatch.context() as m:
        prefilled = _batches(m)
        report.prefill_reports(chunk)
    assert set(prefilled) == _STRUCTURAL_FACTS
    # one call per order and kernel, with every graph that its report reads
    # the fact of in the stack: distances and triangles for all, the
    # intersection numbers of the connected graphs, and the class values of
    # the graphs detect_deza reads them for, then of the prefilled children
    def shapes(calls):
        return sorted(stack.shape for stack in calls)

    def one_stack_per_order(members):
        return sorted((sum(g.n == n for g in members), n, n) for n in {g.n for g in members})

    assert shapes(stacks["all_pairs_distances"]) == one_stack_per_order(chunk)
    assert shapes(stacks["triangle_count"]) == one_stack_per_order(chunk)
    connected = [g for g in chunk if graphs.is_connected(g)]
    assert shapes(stacks["intersection_counts"]) == one_stack_per_order(connected)
    may_be_deza = [g for g in chunk if deza._may_be_deza(g)]
    read = stacks["class_values"][: len({g.n for g in may_be_deza})]
    assert shapes(read) == one_stack_per_order(may_be_deza)
    # the reports compute no structural fact of a chunk graph, nor M^2 or
    # its class values for a child the prefill built
    children = [child for g in chunk if deza._children.memo_key in g._facts
                for child in (deza.children(g).child_a, deza.children(g).child_b)]
    computed = _batches(monkeypatch)
    reports = [build_report(g, str(i)) for i, g in enumerate(chunk)]
    assert reports == expected
    late = {name: {id(g) for g, _ in pairs} for name, pairs in computed.items()}
    assert not {id(g) for g in chunk} & set().union(*late.values())
    assert not {id(g) for g in children} & (
        late.get("common_neighbour_matrix", set()) | late.get("_class_values", set()))
    # K_{3,3,3}, 3K3, Taylor-Paley(5), Petersen, C10, C5 + C5 and Paley(13)
    assert len(children) == 2 * 7


def test_a_graph_at_the_cap_runs_as_a_stack_of_one(monkeypatch):
    big = families.paley(257)
    rng = random.Random(2)
    perm = rng.sample(range(big.n), big.n)
    chunk = [big, families.petersen(), Graph(big.adj[np.ix_(perm, perm)]), families.cycle(10)]
    stacks = _kernel_stacks(monkeypatch)
    report.prefill_reports(chunk)
    # from n = 81 on a graph would run alone (2 n^3 > STACK_ELEMENTS), so
    # the prefill leaves its structural facts to its report and the chunk
    # holds no M^2 or distances of order 257: its kernels ran the stacks of
    # order 10 alone (Petersen and C10, then for the class values the
    # children of both)
    assert 2 * 81**3 > graphs.STACK_ELEMENTS >= 2 * 80**3
    assert all(stack.shape[1] == 10 for calls in stacks.values() for stack in calls)
    large = [g for g in chunk if g.n == 257]
    held = (graphs.common_neighbour_matrix, graphs.distance_data, graphs.triangle_count,
            deza._class_values, distreg.intersection_numbers)
    assert not any(fact.memo_key in g._facts for g in large for fact in held)
    # each report then runs its graph, and the children it builds, as a
    # stack of one
    for g in large:
        assert report_inconsistencies(build_report(g)) == []
    for name, calls in stacks.items():
        shapes = [stack.shape for stack in calls if stack.shape[1] == 257]
        assert shapes and set(shapes) == {(1, 257, 257)}, name
