"""A seeded sweep of build_report over the family catalogue, the
verify-paper corpus and small random regular graphs."""

import hashlib
import json
import random

from conftest import random_regular_graph
from dezakit import families, verify
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
        "8c8adf3df4156705d1de6d3301ec58d5c2e369a8b207acd2a0c5b9d03fc96a29"
    )
