"""Command-line surface: verbs, exit codes, determinism."""

import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_regular_graph
import dezakit
from dezakit import cli, deza, distreg, families, spectra, theorems, verify
from dezakit import report as report_mod
from dezakit.cli import main
from dezakit.eigenvalues import Spectrum
from dezakit.graph6 import parse_graph6, write_graph6
from dezakit.report import build_report, report_inconsistencies
from dezakit.spectra import NonQuadraticSpectrumError, exact_spectrum


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


def test_analyze_expectation_count_and_single_object(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run(capsys, "construct", "icosahedron", "-o", str(path))
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps([{"n": 12}, {"n": 12}]))
    code, _, err = run(capsys, "analyze", str(path), "--expect", str(expect))
    assert code == 1
    assert err == "expectation mismatch: expected 2 reports, got 1\n"
    # a single expectation object stands for a list of one
    expect.write_text(json.dumps({"n": 12, "deza": {"b": 2, "a": 0}}))
    assert run(capsys, "analyze", str(path), "--expect", str(expect))[0] == 0
    expect.write_text(json.dumps({"n": 13}))
    code, _, err = run(capsys, "analyze", str(path), "--expect", str(expect))
    assert code == 1 and err.startswith("expectation mismatch: ")


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
    for args in (("icosahedron",), ("cycle", "7"), ("johnson", "7", "3"), ("petersen",),
                 ("cliques", "2", "3")):
        code, out, _ = run(capsys, "construct", *args)
        lines.append(out.strip())
    # a blank line is skipped and not counted
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    code, out, err = run(capsys, "filter", "strongly-deza", str(path))
    assert code == 0
    assert out.strip().splitlines() == [lines[0], lines[3], lines[4]]
    assert "3/5 matched" in err and "warning" not in err
    code, out, err = run(capsys, "filter", "deza", str(path))
    assert code == 0 and len(out.strip().splitlines()) == 4
    # 2K3 is disconnected, so no distance-regular match
    code, out, err = run(capsys, "filter", "drg", str(path))
    assert code == 0 and out.strip().splitlines() == lines[:4] and "4/5 matched" in err


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


def test_spectrum_json_and_bad_line(tmp_path, capsys):
    path = tmp_path / "g.g6"
    lines = [write_graph6(families.heawood()), write_graph6(families.cycle(7))]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "spectrum", "--json", str(path))
    assert code == 0
    heawood, c7 = json.loads(out)
    assert heawood["source"] == f"{path}:1" and heawood["text"] == "{3^1, (√2)^6, (-√2)^6, (-3)^1}"
    assert str(Spectrum.from_json(heawood["spectrum"])) == heawood["text"]
    assert c7 == {"source": f"{path}:2", "error": (
        "spectrum contains non-quadratic eigenvalues; unfactored residual has degree 6")}
    # a bad line fails the whole input before anything is written
    path.write_text(lines[0] + "\n?\n")
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "spectrum", *flags, str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}:2: graph6 vertex count must be at least 1 (byte offset 0)\n"


def _chunk_stream(tmp_path):
    """2 CHUNK + 3 graphs of mixed orders and prime counts, written to a
    file, and their lines.  Paley(61) (certificate route) is in the first two
    chunks, C7 (non-quadratic) in the first and the last.  The first two
    chunks hold Deza graphs with b > a whose children take the CRT route:
    K_{3,3,3} and 3K3 (each a child of the other), Taylor-Paley(5), and C9,
    whose spectrum is not quadratic."""
    rng = random.Random(256)
    pool = [random_regular_graph(rng, n, k)  # one prime, and two at n = 16
            for n, k in ((8, 3), (9, 4), (10, 3), (11, 4), (12, 5), (13, 6), (14, 5),
                         (16, 6), (16, 9))]
    pool += [families.complete_multipartite([3, 3, 3]), families.disjoint_cliques(3, 3),
             families.taylor_double_cover(families.paley(5)), families.cycle(9)]
    graphs = [families.paley(61), families.cycle(7), families.petersen()]
    graphs += [pool[i % len(pool)] for i in range(2 * cli.CHUNK)]
    graphs[cli.CHUNK + 1], graphs[2 * cli.CHUNK + 1] = graphs[0], graphs[1]
    path = tmp_path / "stream.g6"
    lines = [write_graph6(g) for g in graphs]
    path.write_text("\n".join(lines) + "\n")
    return path, lines


def test_chunk_boundaries_change_no_output(tmp_path, capsys, monkeypatch):
    path, lines = _chunk_stream(tmp_path)
    chunks = []
    for module, name in ((report_mod, "prefill_reports"), (cli, "prefill_spectra")):
        prefill = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda gs, name=name, prefill=prefill:
                            chunks.append((name, len(gs))) or prefill(gs))
    fresh = [(f"{path}:{i}", parse_graph6(line)) for i, line in enumerate(lines, 1)]

    code, out, _ = run(capsys, "analyze", "--json", str(path))
    sizes = [cli.CHUNK, cli.CHUNK, 3]
    assert code == 0 and chunks == [("prefill_reports", size) for size in sizes]
    assert out == json.dumps([build_report(g, src) for src, g in fresh], indent=1) + "\n"

    code, out, _ = run(capsys, "spectrum", "--json", str(path))
    expected = []
    for src, g in fresh:
        try:
            spec = exact_spectrum(g)
            expected.append({"source": src, "spectrum": spec.to_json(), "text": str(spec)})
        except NonQuadraticSpectrumError as exc:
            expected.append({"source": src, "error": str(exc)})
    assert code == 0 and out == json.dumps(expected, indent=1) + "\n"
    assert chunks[3:] == [("prefill_spectra", size) for size in sizes]

    # a bad line in the second chunk still fails the whole input
    lines[cli.CHUNK + 5] = "?"
    path.write_text("\n".join(lines) + "\n")
    for verb in ("analyze", "spectrum"):
        code, out, err = run(capsys, verb, "--json", str(path))
        assert (code, out) == (2, "") and err.startswith(f"{path}:{cli.CHUNK + 6}: ")


def test_a_stream_computes_no_table_twice(tmp_path, capsys, monkeypatch):
    path, _ = _chunk_stream(tmp_path)
    keys = []
    compute = spectra._crt_tables
    monkeypatch.setattr(spectra, "_crt_tables", lambda ks: keys.extend(ks) or compute(ks))
    assert run(capsys, "analyze", "--json", str(path))[0] == 0
    # under the cap nothing is cleared: the store holds every table computed
    assert len(keys) == len(set(keys)) == len(spectra._TABLES)
    assert set(keys) == set(spectra._TABLES)


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


def test_cospectral_json(tmp_path, capsys):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    run(capsys, "construct", "icosahedron", "-o", str(a))
    icosahedron = exact_spectrum(families.icosahedron()).to_json()
    for make, same in (("taylor-paley 5", True), ("petersen", False)):
        run(capsys, "construct", *make.split(), "-o", str(b))
        code, out, err = run(capsys, "cospectral", "--json", str(a), str(b))
        record = json.loads(out)
        assert code == (0 if same else 1) and err == ""
        assert list(record) == ["cospectral", "spectrum_a", "spectrum_b"]
        assert record["cospectral"] is same
        assert record["spectrum_a"] == icosahedron
        assert (record["spectrum_b"] == icosahedron) is same
    assert record["spectrum_b"] == exact_spectrum(families.petersen()).to_json()


def test_analyze_reports_an_injected_contradiction(tmp_path, capsys, monkeypatch):
    # classify_eigenvalue_count compares a connected graph's three distinct
    # eigenvalues with detect_srg on M^2; a broken SRG test must surface as a
    # contradiction record, an inconsistency line and exit 1
    monkeypatch.setattr(theorems, "detect_srg", lambda g: None)
    path = tmp_path / "petersen.g6"
    path.write_text(write_graph6(families.petersen()) + "\n")
    code, out, err = run(capsys, "analyze", "--json", str(path))
    message = "connected three-eigenvalue graph is not an SRG"
    assert code == 1
    assert json.loads(out)[0]["theorems"]["eigenvalue_count"] == {"contradiction": message}
    assert f"inconsistency: theorems.eigenvalue_count: {message}" in err.splitlines()


def test_analyze_reports_a_child_formula_mismatch(tmp_path, capsys, monkeypatch):
    # the closed-form child spectra, swapped, disagree with the constructed
    # children: the report's match flag is false and analyze exits 1
    real = deza.child_spectra_formula
    monkeypatch.setattr(deza, "child_spectra_formula", lambda *args: real(*args)[::-1])
    path = tmp_path / "petersen.g6"
    path.write_text(write_graph6(families.petersen()) + "\n")
    code, out, err = run(capsys, "analyze", "--json", str(path))
    assert code == 1
    assert json.loads(out)[0]["strongly_deza"]["formula_spectra_match"] is False
    line = "inconsistency: child spectra formula disagrees with constructed children"
    assert line in err.splitlines()


def test_cospectral_non_quadratic(tmp_path, capsys):
    a = tmp_path / "a.g6"
    c7 = tmp_path / "c7.g6"
    run(capsys, "construct", "icosahedron", "-o", str(a))
    run(capsys, "construct", "cycle", "7", "-o", str(c7))
    for paths in ((a, c7), (c7, a)):
        code, out, err = run(capsys, "cospectral", *map(str, paths))
        assert (code, out) == (2, "")
        assert err == (f"cospectral: {c7}: spectrum contains non-quadratic "
                       "eigenvalues; unfactored residual has degree 6\n")


def test_text_output_file_equals_stdout(tmp_path, capsys):
    # C5's eigenvalues (-1 +- √5)/2 put a non-ASCII √ in each text rendering
    c5 = tmp_path / "c5.g6"
    c5.write_text(write_graph6(families.cycle(5)) + "\n")
    written = tmp_path / "out.txt"
    for argv in (("analyze", str(c5)), ("spectrum", str(c5)),
                 ("cospectral", str(c5), str(c5))):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "√5" in out
        assert run(capsys, *argv, "-o", str(written)) == (0, "", "")
        assert written.read_bytes() == out.encode("utf-8")


def test_verify_paper(tmp_path, capsys):
    total = len(verify.run_all())
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.splitlines()[-1] == f"-- {total}/{total} checks passed"
    code, text, _ = run(capsys, "verify-paper", "--json")
    rows = json.loads(text)
    assert code == 0 and len(rows) == total and all(row["passed"] for row in rows)
    written = tmp_path / "table.txt"
    assert run(capsys, "verify-paper", "-o", str(written)) == (0, "", "")
    assert written.read_bytes() == out.encode("utf-8")


def test_verify_paper_reports_a_contradiction(capsys, monkeypatch):
    # the cosp-triangles fault of tests/test_distreg.py: the cospectral
    # Deza mate check of the supplementary rows then finds a contradiction
    real = distreg.triangle_count
    monkeypatch.setattr(distreg, "triangle_count", lambda g: real(g) + 1)
    code, out, err = run(capsys, "verify-paper")
    assert code == 1 and err == ""
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  [ S] runs without a contradiction")
    assert failed[0].endswith(
        "expected=no contradiction actual=triangle count differs from n*k*b/6")
    # every criterion still runs: each of 1 to 15 passes its rows
    assert {f"[{i:>2}]" for i in range(1, 16)} <= {line[6:10] for line in lines
                                                   if line.startswith("PASS")}
    # and only the section that raised loses rows: the two cospectral Deza
    # mate rows of the 179 give way to the one failed row
    rows = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert len(rows) == 178 and sum(line.startswith("PASS") for line in rows) == 177
    assert not any("cospectral Deza mate" in line for line in rows)


def test_stdin_input(capsys, monkeypatch):
    import io

    code, out, _ = run(capsys, "construct", "icosahedron")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode("ascii"))))
    code, out, err = run(capsys, "filter", "ddg", "-")
    assert code == 0 and "1/1 matched" in err


# the ASCII line breaks of str.splitlines (\r\n, \r, \n, \x0b, \x0c,
# \x1c-\x1e), non-ASCII bytes (UTF-8's NEL and LINE SEPARATOR must not break a
# line), blank lines and an unterminated last line
_LINE_BREAKS = (
    b"A_\r\nB?\rC~\x0bD\x0cE\x1cF\x1dG\x1eH\n\nA\xc3_\n\r\n\x85\xe2\x80\xa8last"
)


@pytest.mark.parametrize("data", [_LINE_BREAKS, b"", b"\n", b"\r", b"x\r", b"\n\n\r\r\n"])
def test_lines_number_as_the_whole_text(data, tmp_path, monkeypatch):
    import io

    expected = data.decode("ascii", "surrogateescape").splitlines()
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    assert list(cli._lines(str(path))) == expected
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert list(cli._lines("-")) == expected


@pytest.mark.parametrize("argv", [["analyze", "-"], ["filter", "deza", "-"], ["children", "-"]])
def test_closed_stdin_is_an_input_error(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", None)  # as when started with <&-
    assert run(capsys, *argv) == (2, "", "-: stdin is closed\n")


def _child_env():
    """The environment of a child Python that imports this dezakit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dezakit.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def test_bad_line_on_a_real_pipe():
    good = write_graph6(families.petersen())
    done = subprocess.run(
        [sys.executable, "-m", "dezakit.cli", "analyze", "-"],
        input=f"{good}\n{good}\n~~\n".encode("ascii"),
        env=_child_env(), capture_output=True, check=False,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr.decode().startswith("-:3: ")


def test_no_analysing_verb_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 10 ms to import; numpy 1.x imports it with numpy,
    # so only a module loaded after dezakit.cli counts
    path = tmp_path / "petersen.g6"
    path.write_text(write_graph6(families.petersen()) + "\n")
    verbs = [["analyze", "--json", str(path)], ["spectrum", str(path)],
             ["filter", "deza", str(path)], ["verify-paper"]]
    script = f"""
import sys
from dezakit.cli import main
before = set(sys.modules)
for argv in {verbs!r}:
    if main(argv) != 0:
        sys.exit(f"{{argv}} failed")
loaded = sorted(m for m in set(sys.modules) - before
                if m == "numpy.ma" or m.startswith("numpy.ma."))
sys.exit(f"the verbs imported {{loaded}}" if loaded else 0)
"""
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, check=False)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("argv, order", [
    (("johnson", "30", "15"), 155117520),
    (("kneser", "40", "4"), 91390),
    (("complete", "100000"), 100000),
    (("cliques", "1000", "1000"), 1000000),
    (("multipartite", "200", "59"), 259),
    (("paley", "1009"), 1009),
    (("taylor-paley", "137"), 276),
    (("trivial-design", "129"), 260),
    (("cycle", "259"), 259),
])
def test_construct_refuses_orders_above_the_cap_before_building(argv, order, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("built a graph above the cap")

    monkeypatch.setattr(families, "meet_graph", unreachable)
    name = argv[0]
    _, spec, vertex_count = families.CATALOG[name]
    monkeypatch.setitem(families.CATALOG, name, (unreachable, spec, vertex_count))
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out) == (64, "")
    assert err == f"construct: {' '.join(argv)} has {order} vertices, above the graph6 cap 258\n"


def test_construct_at_the_cap_and_bad_arguments(capsys):
    code, out, _ = run(capsys, "construct", "cycle", "258")
    assert code == 0 and cli.parse_graph6(out.strip()).n == 258
    # arguments outside a family's range keep the family's own message
    for argv, message in ((("johnson", "5", "-1"), "johnson graph needs 1 <= k <= n"),
                          (("cliques", "-1000", "-1000"), "need at least one clique"),
                          (("kneser", "3", "2"), "kneser graph needs n >= 2k")):
        assert run(capsys, "construct", *argv) == (64, "", f"construct: {message}\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/g.g6")
    assert code == 2


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.g6"
    run(capsys, "construct", "petersen", "-o", str(path))
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        with monkeypatch.context() as patch:
            patch.setattr("sys.stdout", _ClosedPipe(fd))
            code = main(["analyze", "--json", str(path)])
        # 128 + SIGPIPE, silently, with stdout's descriptor now on devnull
        assert code == 141
        assert capsys.readouterr().err == ""
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    # an unreadable input is still an input error
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.g6"))
    assert code == 2 and "missing.g6" in err


def test_usage_exit(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64


@pytest.mark.parametrize("make, text, error", [
    # the certificate declines, and the CRT route divides by its step's factors
    pytest.param(lambda: random_regular_graph(random.Random(258), 258, 6), None,
                 "spectrum contains non-quadratic eigenvalues; unfactored residual has degree 257",
                 id="random-6-regular"),
    pytest.param(lambda: families.complete(258), "{257^1, (-1)^257}", None, id="complete"),
    pytest.param(lambda: families.complete_multipartite([129, 129]),
                 "{129^1, 0^256, (-129)^1}", None, id="complete-bipartite"),
])
def test_analyze_at_graph6_cap(make, text, error, tmp_path, capsys):
    path = tmp_path / "cap.g6"
    path.write_text(write_graph6(make()) + "\n")
    code, out, _ = run(capsys, "analyze", "--json", str(path))
    assert code == 0
    [report] = json.loads(out)
    assert report["n"] == 258
    assert (report["spectrum_text"], report["spectrum_error"]) == (text, error)
    assert report_inconsistencies(report) == []
