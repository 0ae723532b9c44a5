"""Command-line surface: verbs, exit codes, determinism."""

import json
import random

import pytest

from conftest import random_regular_graph
from dezakit import cli, families
from dezakit.cli import main
from dezakit.graph6 import write_graph6
from dezakit.report import report_inconsistencies


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_analyze(tmp_path, capsys):
    out = tmp_path / "olg.g6"
    code, _, _ = run(capsys, "construct", "octahedron-line-graph", "-o", str(out))
    assert code == 0
    code, text, err = run(capsys, "analyze", str(out))
    assert code == 0
    assert "deza: (12,6,3,2)" in text
    assert "{6^1, 2^3, 0^2, (-2)^6}" in text


def test_analyze_json_round_trip(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run(capsys, "construct", "heawood", "-o", str(path))
    code, text, _ = run(capsys, "analyze", "--json", str(path))
    assert code == 0
    reports = json.loads(text)
    assert reports[0]["ddg"] == {"v": 14, "k": 3, "lambda1": 1, "lambda2": 0, "m": 2, "n": 7}


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nA\x20_\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "bad.g6:2" in err


def test_analyze_expectations(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run(capsys, "construct", "icosahedron", "-o", str(path))
    expect_ok = tmp_path / "expect.json"
    expect_ok.write_text(json.dumps([{"n": 12, "deza": {"b": 2, "a": 0}}]))
    code, _, _ = run(capsys, "analyze", str(path), "--expect", str(expect_ok))
    assert code == 0
    expect_bad = tmp_path / "bad.json"
    expect_bad.write_text(json.dumps([{"n": 13}]))
    code, _, err = run(capsys, "analyze", str(path), "--expect", str(expect_bad))
    assert code == 1
    assert "expectation mismatch" in err


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, "construct", "paley", "8")
    assert code == 64 and "mod 4" in err
    code, _, err = run(capsys, "construct", "nosuch")
    assert code == 64
    code, _, _ = run(capsys, "construct", "johnson", "6")
    assert code == 64


def test_construct_deterministic(capsys):
    code1, out1, _ = run(capsys, "construct", "taylor-paley", "13")
    code2, out2, _ = run(capsys, "construct", "taylor-paley", "13")
    assert code1 == code2 == 0 and out1 == out2


def test_filter(tmp_path, capsys):
    path = tmp_path / "mix.g6"
    lines = []
    for args in (("icosahedron",), ("cycle", "7"), ("johnson", "7", "3"), ("petersen",)):
        code, out, _ = run(capsys, "construct", *args)
        lines.append(out.strip())
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "filter", "strongly-deza", str(path))
    assert code == 0
    assert out.strip().splitlines() == [lines[0], lines[3]]
    assert "2/4 matched" in err
    code, out, err = run(capsys, "filter", "deza", str(path))
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, out, err = run(capsys, "filter", "drg", str(path))
    assert code == 0 and len(out.strip().splitlines()) == 4


def test_filter_all_four_vertex_graphs(tmp_path, capsys):
    # every labelled graph on four vertices; the Deza ones are the three
    # 4-cycles and the three perfect matchings (stars are irregular,
    # K4/empty are excluded by definition)
    import numpy as np

    from dezakit.deza import detect_deza
    from dezakit.graphs import Graph

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    lines = []
    direct = 0
    for mask in range(64):
        a = np.zeros((4, 4), dtype=np.uint8)
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                a[u, v] = a[v, u] = 1
        g = Graph(a)
        lines.append(write_graph6(g))
        if detect_deza(g) is not None:
            direct += 1
    path = tmp_path / "four.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "filter", "deza", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == direct == 6
    assert "(4, 2, 2, 0)" in err and "(4, 1, 0, 0)" in err


def test_filter_skips_bad_lines(tmp_path, capsys):
    path = tmp_path / "mix.g6"
    path.write_text("A_\n\x7f\nC~\n")
    code, out, err = run(capsys, "filter", "deza", str(path))
    assert code == 0 and "warning" in err
    code, out, err = run(capsys, "filter", "deza", "--strict", str(path))
    assert code == 2


def test_undecodable_bytes_are_a_line_error(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "mixed.g6"
    path.write_bytes(b"A_\nA\xc3_\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "mixed.g6:2" in err and "non-ASCII" in err
    code, out, err = run(capsys, "filter", "deza", str(path))
    assert code == 0 and "warning" in err and "mixed.g6:2" in err
    code, _, err = run(capsys, "filter", "deza", "--strict", str(path))
    assert code == 2 and "mixed.g6:2" in err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
    code, _, err = run(capsys, "filter", "deza", "-")
    assert code == 0 and "warning: -:2: non-ASCII character (byte offset 1)" in err


def test_analyze_malformed_expectations(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text("A_\n")
    expect = tmp_path / "expect.json"
    expect.write_text('[{"n": 2')
    code, _, err = run(capsys, "analyze", str(path), "--expect", str(expect))
    assert code == 2 and "expect.json" in err


def test_single_vertex(tmp_path, capsys):
    path = tmp_path / "k1.g6"
    path.write_text("@\n")
    code, out, err = run(capsys, "analyze", "--json", str(path))
    assert code == 0 and "inconsistency" not in err
    [report] = json.loads(out)
    assert report_inconsistencies(report) == []
    drg = report["distance_regular"]
    assert drg["is_drg"] and drg["diameter"] == 0
    assert (drg["b"], drg["c"], drg["a"], drg["k_i"]) == ([], [], [], [1])
    code, out, err = run(capsys, "filter", "drg", str(path))
    assert code == 0 and out == "@\n" and "1 x {;}" in err


def test_filter_empty(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, err = run(capsys, "filter", "deza", str(path))
    assert code == 0 and out == "" and "0/0" in err


def test_spectrum(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run(capsys, "construct", "cycle", "7", "-o", str(path))
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0 and "ERROR" in out
    run(capsys, "construct", "heawood", "-o", str(path))
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0 and "(√2)^6" in out


def test_children(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run(capsys, "construct", "heawood", "-o", str(path))
    code, out, _ = run(capsys, "children", "--json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["deza"] == [14, 3, 1, 0]
    run(capsys, "construct", "johnson", "7", "3", "-o", str(path))
    code, _, err = run(capsys, "children", str(path))
    assert code == 1 and "not a Deza graph" in err
    path.write_text("\n\n")
    assert run(capsys, "children", str(path)) == (2, "", "children: no graph in input\n")
    path.write_text("\n~~\nA_\n")
    code, out, err = run(capsys, "children", str(path))
    assert code == 2 and not out and err.startswith(f"{path}:2: ")


def test_children_parses_only_the_first_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.g6"
    line = write_graph6(families.heawood())
    path.write_text(f"{line}\n{line}\nnot graph6\n")
    parsed = []
    real = cli.parse_graph6
    monkeypatch.setattr(cli, "parse_graph6", lambda text: parsed.append(text) or real(text))
    code, out, _ = run(capsys, "children", str(path))
    assert code == 0 and out.startswith("deza (14, 3, 1, 0)")
    assert parsed == [line]


def test_cospectral(tmp_path, capsys):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    run(capsys, "construct", "icosahedron", "-o", str(a))
    run(capsys, "construct", "taylor-paley", "5", "-o", str(b))
    code, out, _ = run(capsys, "cospectral", str(a), str(b))
    assert code == 0 and "cospectral: True" in out
    run(capsys, "construct", "petersen", "-o", str(b))
    code, out, _ = run(capsys, "cospectral", str(a), str(b))
    assert code == 1 and "cospectral: False" in out
    b.write_text("\n")
    code, _, err = run(capsys, "cospectral", str(a), str(b))
    assert code == 2 and err == f"cospectral: no graph in {b}\n"
    b.write_text("~~\n")
    code, _, err = run(capsys, "cospectral", str(b), str(a))
    assert code == 2 and err.startswith(f"{b}:1: ")


def test_stdin_input(capsys, monkeypatch):
    import io

    code, out, _ = run(capsys, "construct", "icosahedron")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, err = run(capsys, "filter", "ddg", "-")
    assert code == 0 and "1/1 matched" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/g.g6")
    assert code == 2


def test_usage_exit(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64


@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_regular_graph(random.Random(258), 258, 6), id="random-6-regular"),
    pytest.param(lambda: families.complete(258), id="complete"),
    pytest.param(lambda: families.complete_multipartite([129, 129]), id="complete-bipartite"),
])
def test_analyze_at_graph6_cap(make, tmp_path, capsys):
    path = tmp_path / "cap.g6"
    path.write_text(write_graph6(make()) + "\n")
    code, out, _ = run(capsys, "analyze", "--json", str(path))
    assert code == 0
    [report] = json.loads(out)
    assert report["n"] == 258
    assert report_inconsistencies(report) == []
