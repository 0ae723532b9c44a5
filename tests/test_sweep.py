"""A seeded sweep of build_report over the family catalogue, the
verify-paper corpus and small random regular graphs."""

import hashlib
import json
import random
from itertools import combinations

from conftest import folded_cube, hamming, random_graph, random_regular_graph
from dezakit import families, verify
from dezakit.graphs import bipartite_double, complement, disjoint_union
from dezakit.report import build_report, report_inconsistencies

#: one or more small members of each catalogue family
CATALOGUE = (
    ("complete", "6"),
    ("cycle", "5"), ("cycle", "6"), ("cycle", "7"), ("cycle", "8"),
    ("cliques", "3 4"), ("cliques", "4 2"),
    ("multipartite", "3 3"), ("multipartite", "2 2 2"), ("multipartite", "4 4 4"),
    ("kneser", "5 2"), ("kneser", "6 2"), ("kneser", "7 3"),
    ("petersen", ""),
    ("johnson", "5 2"), ("johnson", "6 3"), ("johnson", "7 2"),
    ("icosahedron", ""),
    ("paley", "5"), ("paley", "9"), ("paley", "13"), ("paley", "17"), ("paley", "25"),
    ("taylor-paley", "5"), ("taylor-paley", "9"), ("taylor-paley", "13"),
    ("heawood", ""),
    ("biplane11", ""),
    ("trivial-design", "3"), ("trivial-design", "4"),
    ("octahedron-line-graph", ""),
    ("klein24", ""),
)


def _sweep():
    """(source, graph) for every swept graph, in a fixed order."""
    for family, args in CATALOGUE:
        yield f"{family} {args}".strip(), families.construct(family, args.split())
    yield from verify.corpus().items()
    rng = random.Random(20260)
    for i in range(150):
        n = rng.randint(8, 14)
        k = rng.choice([k for k in range(2, n - 2) if n * k % 2 == 0])
        yield f"random-{i}", random_regular_graph(rng, n, k)


def test_sweep_reports_are_consistent_and_frozen():
    reports = [build_report(g, source=source) for source, g in _sweep()]
    assert len(reports) == len(CATALOGUE) + len(verify.corpus()) + 150
    for rep in reports:
        assert report_inconsistencies(rep) == [], rep["source"]
        deza, sd = rep["deza"], rep["strongly_deza"]
        if deza is not None and deza["b"] > deza["a"] and rep["spectrum"] is not None:
            assert sd["formula_spectra_match"] is True, rep["source"]
    # the rendered JSON, byte for byte
    digest = hashlib.sha256(json.dumps(reports, indent=1).encode("utf-8"))
    assert digest.hexdigest() == (
        "ac94cc8ad65111c62dee0cadeff79e3934bb1270f17aab7a2166a800bba605fb"
    )


def _outside_the_hypotheses():
    """(source, graph) for graphs that are not strongly Deza, or not Deza
    at all: cubes, folded cubes, Hamming graphs, disjoint unions of two
    unequal SRGs, bipartite doubles, and irregular graphs."""
    for d in range(2, 8):
        yield f"cube {d}", hamming(d, 2)
    for d in range(3, 9):
        yield f"folded cube {d}", folded_cube(d)
    for d, q in [(2, q) for q in range(2, 9)] + [(3, 3), (3, 4), (4, 3)]:
        yield f"hamming {d} {q}", hamming(d, q)
    srgs = {
        "petersen": families.petersen(),
        "paley 9": families.paley(9),
        "paley 13": families.paley(13),
        "cycle 5": families.cycle(5),
        "rook 4x4": hamming(2, 4),
    }
    for (x, g), (y, h) in combinations(srgs.items(), 2):
        yield f"{x} + {y}", disjoint_union([g, h])
    for x, g in srgs.items():
        yield f"double {x}", bipartite_double(g)
        yield f"double complement {x}", bipartite_double(complement(g))
    rng = random.Random(20261)
    for i in range(20):
        yield f"irregular-{i}", random_graph(rng, rng.randint(6, 16), 0.4)


def test_graphs_outside_the_hypotheses_report_no_inconsistency():
    for source, g in _outside_the_hypotheses():
        assert report_inconsistencies(build_report(g, source=source)) == [], source
