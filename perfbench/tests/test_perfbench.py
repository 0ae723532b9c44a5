"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generator --------------------------------------------------------------


def test_stream_is_deterministic_per_seed():
    a = gen.small_stream(random.Random("s:1"), range(8, 12), 12, 1)
    b = gen.small_stream(random.Random("s:1"), range(8, 12), 12, 1)
    c = gen.small_stream(random.Random("s:2"), range(8, 12), 12, 1)
    assert a == b
    assert a != c
    assert len(a) == len(set(a)) == 4 * 12 + len(gen.STREAM_FAMILIES)


@pytest.mark.parametrize("n", range(8, 21))
def test_random_regular_graphs_are_simple_and_regular(n):
    rng = random.Random(n)
    for k in gen.degrees(n):
        edges = gen.random_regular(rng, n, k)
        adj = oracle.decode_graph6(gen.graph6(n, edges))
        assert (adj == adj.T).all() and not adj.diagonal().any()
        assert (adj.sum(axis=1) == k).all()
        assert {(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj)))} == edges


def test_graph6_matches_the_package_parser():
    from dezakit.graph6 import parse_graph6

    for n, edges in (gen.petersen(), gen.johnson(10, 3), gen.paley_prime(61)):
        line = gen.graph6(n, edges)
        assert np.array_equal(parse_graph6(line).adj, oracle.decode_graph6(line))


def test_families_have_their_parameters():
    expect = {
        "paley13": (13, 6, 3, 2),
        "petersen": (10, 3, 1, 0),
        "k4_4_4": (12, 8, 8, 4),
        "taylor_paley5": (12, 5, 2, 0),
    }
    for name, params in expect.items():
        n, edges = gen.STREAM_FAMILIES[name]()
        assert oracle.deza_params(oracle.decode_graph6(gen.graph6(n, edges))) == params
    assert oracle.intersection_array(oracle.decode_graph6(gen.graph6(*gen.paley9()))) \
        == ([4, 2], [1, 2])


# -- oracle -----------------------------------------------------------------


def _petersen_report():
    from dezakit.graph6 import parse_graph6
    from dezakit.report import build_report

    line = gen.graph6(*gen.petersen())
    return oracle.decode_graph6(line), build_report(parse_graph6(line), source="p.g6:1")


def test_oracle_accepts_a_correct_report():
    adj, report = _petersen_report()
    oracle.check_report(adj, report, "p.g6:1")


def test_oracle_rejects_a_corrupted_spectrum():
    adj, report = _petersen_report()
    for corrupt in (
        lambda s: s[0].update(value=str(int(s[0]["value"]) + 1)),
        lambda s: (s[0].update(mult=s[0]["mult"] + 1), s[-1].update(mult=s[-1]["mult"] - 1)),
    ):
        bad = copy.deepcopy(report)
        corrupt(bad["spectrum"])
        with pytest.raises(oracle.OracleError):
            oracle.check_report(adj, bad, "p.g6:1")


def test_oracle_rejects_wrong_deza_parameters():
    adj, report = _petersen_report()
    bad = copy.deepcopy(report)
    bad["deza"]["b"] += 1
    with pytest.raises(oracle.OracleError):
        oracle.check_report(adj, bad, "p.g6:1")


def test_oracle_rejects_a_corrupted_filter_match():
    lines = gen.small_stream(random.Random("f"), range(8, 11), 10, 1)
    adjs = [oracle.decode_graph6(line) for line in lines]
    for predicate in oracle.FILTER_PREDICATES:
        expected = oracle.filter_matches(predicate, lines, adjs)
        assert expected, predicate
        oracle.check_filter(predicate, expected, "".join(x + "\n" for x in expected))
        with pytest.raises(oracle.OracleError):
            oracle.check_filter(predicate, expected, "\n".join(expected[1:]))
        stray = next(line for line in lines if line not in expected)
        with pytest.raises(oracle.OracleError):
            oracle.check_filter(predicate, expected, "\n".join([stray, *expected]))


def test_oracle_counts_contradictions():
    _, report = _petersen_report()
    assert not oracle.report_contradicts(report)
    report["theorems"]["singular"] = {"contradiction": "x"}
    assert oracle.report_contradicts(report)


def test_verify_table_needs_every_row_passed():
    assert oracle.check_verify_table("PASS  [1] a\nPASS  [2] b\n-- 2/2 checks passed") == 2
    with pytest.raises(oracle.OracleError):
        oracle.check_verify_table("PASS  [1] a\nFAIL  [2] b\n-- 1/2 checks passed")


# -- tracing ----------------------------------------------------------------


def _package_bindings() -> dict:
    import mpmath

    import dezakit.cli  # noqa: F401  (loads every module of the package)

    modules = [m for name, m in sys.modules.items()
               if name == "dezakit" or name.startswith("dezakit.")]
    modules += [mpmath, np.linalg]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_wraps_every_import_site_and_restores_it():
    from dezakit import charpoly, cli, report, spectra
    from dezakit.graphs import Graph

    paley13 = Graph(oracle.decode_graph6(gen.graph6(*gen.paley_prime(13))))
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.exact_spectrum is not before[("dezakit.cli", "exact_spectrum")]
        assert report.exact_spectrum is not before[("dezakit.report", "exact_spectrum")]
        assert spectra.char_poly is not before[("dezakit.spectra", "char_poly")]
        assert charpoly.char_poly is spectra.char_poly
        tracer.call(tracing.ROOT_SPAN, report.build_report, (paley13,))
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    summary = tracer.summary()
    assert summary["layers"]["report.build_report"]["calls"] == 1
    assert summary["layers"]["charpoly.char_poly"]["calls"] >= 1
    assert summary["layers"]["spectra.eigensolver"]["calls"] >= 1
    assert summary["self_total_s"] == pytest.approx(summary["root_s"])


# -- whole runs -------------------------------------------------------------


@pytest.fixture
def workdir(request):
    path = ROOT / ".perfbench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_every_emitted_metric_is_declared(workdir):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        work = workdir / section
        work.mkdir()
        out = run.execute("paper", 1, 0.0, bool(trace), work)
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        emitted = {k: v["unit"] for k, v in out["metrics"].items()}
        assert emitted == declared


def test_same_seed_gives_identical_output_digests(workdir):
    lines = gen.small_stream(random.Random("d"), range(8, 10), 6, 1)
    digests = []
    for attempt in range(2):
        work = workdir / str(attempt)
        work.mkdir()
        runner = run.Runner(work)
        p = run._analyze_pass("t", 0, lines)
        p.hash_seed = attempt + 1  # the output must not depend on it
        results = runner.run_pass(p, trace=False)
        digests.append(results["analyze"].digest)
    assert digests[0] == digests[1]


def test_refuses_to_run_without_sources(workdir):
    tmp_path = workdir
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

