"""verify-paper: its frozen output, and criterion 14's frozen random sample
and exact determinant oracle."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from dezakit import charpoly, graph6, verify
from dezakit.graph6 import write_graph6
from dezakit.graphs import Graph
from dezakit.verify import bareiss_determinants

#: sha256 of verify-paper --json: json.dumps of the 179 rows, indent=1
VERIFY_SHA256 = "7ac1ec515c10cb320ed9bd0c80561f4bfe54d519597485bbe2f2caa64a4a3d7f"
#: sha256 of the 1000 graph6 lines (each ending in a newline) that
#: criterion 14 round-trips, drawn from random.Random(181181)
SAMPLE_SHA256 = "3e7da2f31ce3e3963e1dbc5127491e059d9bc3bde7275aa48d5fe16a42662411"


def test_verify_paper_json_is_frozen():
    rows = verify.run_all()
    assert len(rows) == 179
    text = json.dumps([asdict(r) for r in rows], indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SHA256


def test_run_all_stacks_the_passes_of_the_corpus(monkeypatch):
    fresh = {name: Graph(g.adj) for name, g in verify.corpus().items()}  # no fact yet
    monkeypatch.setattr(verify, "corpus", lambda: fresh)
    orders = []
    kernel = charpoly._hessenberg
    monkeypatch.setattr(charpoly, "_hessenberg",
                        lambda h, p: orders.append(h.shape[1]) or kernel(h, p))
    verify.run_all()
    # one pass per order for the corpus graphs, one for their children, and
    # none of a graph at a time
    assert max(Counter(orders).values()) <= 2


def test_criterion_14_runs_one_stack_per_order(monkeypatch):
    calls = {"decode": [], "encode": [], "eliminate": []}
    decode, encode = graph6._decode, graph6._encode
    monkeypatch.setattr(graph6, "_decode", lambda n, bodies: calls["decode"].append(
        (n, len(bodies))) or decode(n, bodies))
    monkeypatch.setattr(graph6, "_encode", lambda adj: calls["encode"].append(
        (adj.shape[1], len(adj))) or encode(adj))
    monkeypatch.setattr(verify, "bareiss_determinants", lambda mats: calls["eliminate"].append(
        (len(mats[0]), len(mats))) or bareiss_determinants(mats))
    assert all(row.passed for row in verify.criterion_14())
    # the 1000 graphs decoded in one stack per order present and encoded in
    # two, and the 125 determinants in one stack per corpus order
    orders = Counter(n for n, _ in calls["decode"])
    assert set(orders.values()) == {1} and sum(k for _, k in calls["decode"]) == 1000
    assert Counter(n for n, _ in calls["encode"]) == orders + orders
    assert sum(k for _, k in calls["encode"]) == 2000
    corpus_orders = Counter(n for n, _ in calls["eliminate"])
    assert set(corpus_orders.values()) == {1}
    assert set(corpus_orders) == {g.n for g in verify.corpus().values()}
    assert sum(k for _, k in calls["eliminate"]) == 5 * len(verify.corpus())


def test_criterion_14_sample_is_frozen():
    rng = random.Random(181181)
    digest = hashlib.sha256()
    for _ in range(1000):
        n = rng.randint(1, 40)
        digest.update((write_graph6(verify._random_graphs(rng, [n])[0]) + "\n").encode())
    assert digest.hexdigest() == SAMPLE_SHA256


def test_random_graph_matches_the_per_pair_draws():
    rng, reference = random.Random(5), random.Random(5)
    for n in (1, 2, 3, 39, 40):
        expected = np.zeros((n, n), dtype=np.uint8)
        for u in range(n):
            for v in range(u + 1, n):
                expected[u, v] = expected[v, u] = reference.random() < 0.5
        assert np.array_equal(verify._random_graphs(rng, [n])[0].adj, expected)
        assert rng.getstate() == reference.getstate()
    assert rng.random() == reference.random()


def _fraction_determinant(matrix) -> int:
    """Gaussian elimination over the rationals."""
    m = [[Fraction(int(x)) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


@pytest.mark.parametrize("matrix, det", [
    ([[7]], 7),
    ([[0]], 0),
    ([[0, 1], [1, 0]], -1),  # a zero pivot that needs a swap
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),  # a zero pivot after one step
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    ([[1, 2, 3], [2, 4, 6], [0, 1, 5]], 0),  # dependent rows
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),  # a zero column
    ([[1, 2], [2, 4]], 0),  # singular at the last pivot
])
def test_bareiss_on_worked_examples(matrix, det):
    assert _fraction_determinant(matrix) == det
    assert bareiss_determinants([matrix])[0] == det
    assert bareiss_determinants([np.array(matrix, dtype=np.int64)])[0] == det


def test_bareiss_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(2718)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        # small entries give many zero pivots and singular matrices
        matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        expected = _fraction_determinant(matrix)
        singular += expected == 0
        assert bareiss_determinants([matrix])[0] == expected
        assert bareiss_determinants([np.array(matrix, dtype=np.int64)])[0] == expected
    assert singular


def test_bareiss_is_exact_beyond_int64():
    rng = random.Random(31)
    matrix = [[rng.randint(-10**12, 10**12) for _ in range(8)] for _ in range(8)]
    (det,) = bareiss_determinants([np.array(matrix, dtype=np.int64)])
    assert isinstance(det, int) and abs(det) > 2**63
    assert det == _fraction_determinant(matrix)


def test_bareiss_determinants_match_fraction_elimination_on_stacks():
    rng = random.Random(1968)

    def check(mats):
        dets = bareiss_determinants(mats)
        assert dets == [_fraction_determinant(m) for m in mats]
        assert all(type(d) is int for d in dets)
        return dets

    # entries in -1..1: members whose first pivot is zero and needs a swap
    # beside members whose does not, and singular members beside the rest
    small = np.array([[[rng.randint(-1, 1) for _ in range(5)] for _ in range(5)]
                      for _ in range(60)])
    dets = check(small)
    swaps = [m[0, 0] == 0 and m[1:, 0].any() for m in small]
    assert any(swaps) and not all(swaps)
    assert 0 in dets and any(dets)

    # int64 entries below 2^21 beside a permutation matrix: the first step
    # runs in int64, the next ones cannot, and the determinants leave int64
    mixed = np.array([[[rng.randint(-2**20, 2**20) for _ in range(6)] for _ in range(6)]
                      for _ in range(4)] + [np.eye(6, dtype=np.int64)[::-1]])
    dets = check(mixed)
    assert max(abs(d) for d in dets) >= 2**63 and dets[-1] == -1

    # Python ints of 2^63 and beyond start in Python ints
    huge = [[[rng.randint(-2**70, 2**70) for _ in range(4)] for _ in range(4)]
            for _ in range(3)] + [[[2**63, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    assert check(huge)[-1] == 2**63 - 1

    # -2^63 fits int64, but its magnitude does not: abs would wrap it to
    # itself, and the product below would overflow
    edge = np.array([[[-2**63, 1], [1, 1]], [[0, 1], [1, 0]]], dtype=np.int64)
    assert check(edge) == [-2**63 - 1, -1]
