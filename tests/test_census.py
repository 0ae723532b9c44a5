"""A census of the catalogue's strongly Deza families up to 64 vertices.

The catalogue is full of graphs with equal characteristic polynomials:
L(K_m) is J(m, 2) relabelled, and many members have children that other
members share.  So the frozen digest here also guards the spectra's
factor tables, which graphs with equal polynomials share."""

import hashlib
import json

from dezakit import families, spectra
from dezakit.cli import main
from dezakit.graph6 import write_graph6
from dezakit.graphs import bipartite_double, line_graph
from dezakit.report import build_report, report_inconsistencies

#: the largest order in the slice
LIMIT = 64


def _census(limit):
    """(source, graph) for every census graph with at most limit vertices,
    in a fixed order."""
    paleys = [q for q in range(5, limit + 1)
              if q % 4 == 1 and (pe := families.prime_power(q)) and pe[1] <= 2]
    for q in paleys:
        yield f"paley {q}", families.construct("paley", [str(q)])
    for q in paleys:
        if 2 * q + 2 <= limit:
            yield f"taylor-paley {q}", families.construct("taylor-paley", [str(q)])
    for q in paleys:
        if 2 * q <= limit:
            yield f"double paley {q}", bipartite_double(families.paley(q))
    for family in ("johnson", "kneser"):
        for n in range(4, limit):
            for k in range(2, n // 2 + 1):
                if families.CATALOG[family][2](n, k) <= limit:
                    yield f"{family} {n} {k}", families.construct(family, [str(n), str(k)])
    for m in range(2, limit // 2 + 1):
        for size in range(2, limit // m + 1):
            yield f"cliques {m} {size}", families.construct("cliques", [str(m), str(size)])
            yield (f"multipartite {m}x{size}",
                   families.construct("multipartite", [str(size)] * m))
    k = 3
    while 2 * k + 2 <= limit:
        yield f"trivial-design {k}", families.construct("trivial-design", [str(k)])
        k = 2 * k + 1
    for m in range(4, limit):
        if m * (m - 1) // 2 <= limit:
            yield f"line graph of K{m}", line_graph(families.complete(m))
    for p in range(7, limit // 2 + 1, 4):
        if families.prime_power(p) == (p, 1):
            residues = sorted({x * x % p for x in range(1, p)})
            yield f"qr design {p}", families.symmetric_design_incidence(p, residues)


def _row(report):
    """The census facts of one report."""
    sd, dr = report["strongly_deza"], report["distance_regular"]
    return [
        report["source"],
        report["deza"],
        report["srg"],
        None if sd is None else sd["verdict"],
        None if dr is None else dr["is_drg"],
        report["spectrum_text"],
    ]


def test_census_slice_is_consistent_and_frozen():
    rows = []
    for source, g in _census(LIMIT):
        rep = build_report(g, source=source)
        assert report_inconsistencies(rep) == [], source
        rows.append(_row(rep))
    assert (len(rows), sum(bool(row[3]) for row in rows)) == (368, 323)
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8"))
    assert digest.hexdigest() == (
        "fd0fb5eaf835b40aa9a589da360c7aabb50c4b3d2bc03a324c5b0dc2cc14898c"
    )


def test_census_slice_streams_through_the_chunks(tmp_path, capsys):
    # many census graphs share polynomials and children across a chunk
    census = [g for _, g in _census(LIMIT)]
    path = tmp_path / "census.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in census))
    assert main(["analyze", "--json", str(path)]) == 0
    streamed = json.loads(capsys.readouterr().out)
    spectra._TABLES.clear()
    singles = [build_report(g) for g in census]
    assert len(streamed) == len(singles) == 368
    for got, want in zip(streamed, singles):
        assert {**got, "source": None} == {**want, "source": None}
