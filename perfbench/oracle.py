"""Independent output checks, written against numpy only.

Nothing here imports the package under test.  Spectra are compared with
``numpy.linalg.eigvalsh`` of the adjacency matrix within ``TOL``; Deza,
strongly regular, strongly Deza, divisible-design and distance-regular
facts are recomputed from powers of the adjacency matrix.  A mismatch
raises ``OracleError``: it fails the run and never becomes a number.
"""

from __future__ import annotations

import numpy as np

#: absolute tolerance between an exact eigenvalue and its float64 estimate.
#: eigvalsh is backward stable, so its error is about n * eps * k <= 1e-11
#: for the graphs benchmarked (n <= 120, k <= 60); 1e-6 leaves a wide margin
#: while still catching any wrong root or multiplicity.
TOL = 1e-6


class OracleError(AssertionError):
    """An output of the program disagrees with the oracle."""


def decode_graph6(line: str) -> np.ndarray:
    """Adjacency matrix (uint8) of one graph6 line."""
    data = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8) - 63
    if data[0] == 63:
        n = (int(data[1]) << 12) | (int(data[2]) << 6) | int(data[3])
        body = data[4:]
    else:
        n = int(data[0])
        body = data[1:]
    bits = np.unpackbits(body.astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    size = n * (n - 1) // 2
    cols = np.repeat(np.arange(1, n), np.arange(1, n))
    rows = np.concatenate([np.arange(v) for v in range(1, n)]) if n > 1 else cols
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[rows, cols] = bits[:size]
    return adj | adj.T


# -- facts recomputed from the adjacency matrix ----------------------------


def _square(adj: np.ndarray) -> np.ndarray:
    a = adj.astype(np.int64)
    return a @ a


def _regular_degree(adj: np.ndarray) -> int | None:
    deg = adj.sum(axis=1)
    return int(deg[0]) if (deg == deg[0]).all() else None


def _trivial(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    edges = int(adj.sum()) // 2
    return edges == 0 or edges == n * (n - 1) // 2


def deza_params(adj: np.ndarray) -> tuple[int, int, int, int] | None:
    """(n, k, b, a) when the off-diagonal entries of M^2 take <= 2 values."""
    k = _regular_degree(adj)
    if k is None or _trivial(adj):
        return None
    n = adj.shape[0]
    values = np.unique(_square(adj)[~np.eye(n, dtype=bool)])
    if len(values) > 2:
        return None
    return n, k, int(values[-1]), int(values[0])


def srg_params(adj: np.ndarray) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu), disjoint unions of equal SRGs included."""
    k = _regular_degree(adj)
    if k is None or _trivial(adj):
        return None
    n = adj.shape[0]
    m2 = _square(adj)
    on = np.unique(m2[adj == 1])
    off = np.unique(m2[(adj == 0) & ~np.eye(n, dtype=bool)])
    if len(on) != 1 or len(off) != 1:
        return None
    return n, k, int(on[0]), int(off[0])


def children(adj: np.ndarray, b: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Child A joins the pairs with a common neighbours, child B those with b."""
    n = adj.shape[0]
    m2 = _square(adj)
    offdiag = ~np.eye(n, dtype=bool)
    return ((m2 == a) & offdiag).astype(np.uint8), ((m2 == b) & offdiag).astype(np.uint8)


def strongly_deza(adj: np.ndarray) -> bool:
    params = deza_params(adj)
    if params is None or params[2] == params[3]:
        return False
    child_a, child_b = children(adj, params[2], params[3])
    return srg_params(child_a) is not None and srg_params(child_b) is not None


def _clique_union(adj: np.ndarray) -> bool:
    """m >= 2 disjoint cliques, all of one size >= 2."""
    n = adj.shape[0]
    closed = adj.astype(bool) | np.eye(n, dtype=bool)
    rows = {closed[v].tobytes() for v in range(n)}
    size = int(closed[0].sum())
    if size < 2 or len(rows) < 2 or len(rows) * size != n:
        return False
    return all(int(closed[v].sum()) == size for v in range(n)) and all(
        (closed[closed[v]][:, closed[v]]).all() for v in range(n)
    )


def divisible_design(adj: np.ndarray) -> bool:
    params = deza_params(adj)
    if params is None or params[2] == params[3]:
        return False
    return any(_clique_union(child) for child in children(adj, params[2], params[3]))


def distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs distances by breadth-first frontiers; -1 when unreachable."""
    n = adj.shape[0]
    a = adj.astype(np.int64)
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    frontier = np.eye(n, dtype=np.int64)
    step = 0
    while frontier.any():
        step += 1
        reach = (frontier @ a > 0) & (dist < 0)
        dist[reach] = step
        frontier = reach.astype(np.int64)
    return dist


def intersection_array(adj: np.ndarray) -> tuple[list[int], list[int]] | None:
    """({b_0..b_{d-1}}, {c_1..c_d}) of a connected distance-regular graph."""
    dist = distances(adj)
    if (dist < 0).any():
        return None
    d = int(dist.max())
    a = adj.astype(np.int64)
    layers = [(dist == i).astype(np.int64) for i in range(d + 2)]
    b, c = [], []
    for i in range(d + 1):
        mask = dist == i
        # neighbours of y at distance i+1 (resp. i-1) from x, per pair (x, y)
        up = np.unique((layers[i + 1] @ a)[mask])
        down = np.unique((layers[i - 1] @ a)[mask]) if i else np.array([0])
        if len(up) != 1 or len(down) != 1:
            return None
        if i < d:
            b.append(int(up[0]))
        if i:
            c.append(int(down[0]))
    return b, c


# -- spectra ----------------------------------------------------------------


def spectrum_floats(entries) -> np.ndarray:
    """Sorted float64 eigenvalues of a ``deza-report/1`` spectrum list."""
    values = []
    for item in entries:
        if "value" in item:
            v = float(int(item["value"]))
        else:
            v = (item["p"] + item["u"] * np.sqrt(float(item["d"]))) / item["q"]
        values.extend([v] * int(item["mult"]))
    return np.sort(np.array(values, dtype=float))


def check_spectrum(adj: np.ndarray, entries, what: str) -> None:
    got = spectrum_floats(entries)
    want = np.linalg.eigvalsh(adj.astype(float))
    if got.shape != want.shape or np.abs(got - want).max() > TOL:
        raise OracleError(f"{what}: exact spectrum disagrees with eigvalsh")


def looks_quadratic(adj: np.ndarray) -> bool:
    """True when every float eigenvalue is an integer or pairs with another
    into a monic integer quadratic of equal multiplicity."""
    vals = np.linalg.eigvalsh(adj.astype(float))
    clusters: list[list[float]] = []
    for v in vals:
        if clusters and v - clusters[-1][-1] < TOL:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    pending = []
    for cl in clusters:
        mean = float(np.mean(cl))
        if abs(mean - round(mean)) > TOL:
            pending.append((mean, len(cl)))
    while pending:
        x, m = pending.pop()
        for j, (y, my) in enumerate(pending):
            s, p = x + y, x * y
            if my == m and abs(s - round(s)) < TOL and abs(p - round(p)) < TOL:
                del pending[j]
                break
        else:
            return False
    return True


# -- whole outputs ----------------------------------------------------------


def report_contradicts(report: dict) -> bool:
    """A report contradicts itself when it records a contradiction anywhere
    or the child spectra formula disagrees with the constructed children."""
    sd = report.get("strongly_deza")
    if sd and sd.get("formula_spectra_match") is False:
        return True

    def walk(node) -> bool:
        if isinstance(node, dict):
            return "contradiction" in node or any(walk(v) for v in node.values())
        if isinstance(node, list):
            return any(walk(v) for v in node)
        return False

    return walk(report)


def check_report(adj: np.ndarray, report: dict, source: str) -> None:
    """Every fact of one ``analyze --json`` report that numpy can recompute."""
    n = adj.shape[0]

    def expect(key, want, got) -> None:
        if want != got:
            raise OracleError(f"{source}: {key} is {got!r}, expected {want!r}")

    expect("source", source, report.get("source"))
    expect("n", n, report["n"])
    expect("edges", int(adj.sum()) // 2, report["edges"])
    expect("regular_degree", _regular_degree(adj), report["regular_degree"])
    a = adj.astype(np.int64)
    expect("triangles", int(np.trace(a @ a @ a)) // 6, report["triangles"])
    connected = bool((distances(adj) >= 0).all())
    expect("connected", connected, report["connected"])

    if report["spectrum"] is not None:
        check_spectrum(adj, report["spectrum"], f"{source} spectrum")
    elif looks_quadratic(adj):
        raise OracleError(f"{source}: reported non-quadratic, eigvalsh pairs up")

    params = deza_params(adj)
    deza = report["deza"]
    got = None if deza is None else (deza["n"], deza["k"], deza["b"], deza["a"])
    expect("deza", params, got)
    srg = report["srg"]
    got = None if srg is None else (srg["n"], srg["k"], srg["lambda"], srg["mu"])
    expect("srg", srg_params(adj), got)

    sd = report["strongly_deza"]
    if params is not None and params[2] > params[3]:
        if sd is None:
            raise OracleError(f"{source}: Deza with b > a but no strongly_deza entry")
        expect("strongly_deza.verdict", strongly_deza(adj), sd["verdict"])
        child_a, child_b = children(adj, params[2], params[3])
        if sd["child_a_spectrum"] is not None:
            check_spectrum(child_a, sd["child_a_spectrum"], f"{source} child A")
            check_spectrum(child_b, sd["child_b_spectrum"], f"{source} child B")
        expect("ddg", divisible_design(adj), report["ddg"] is not None)
    else:
        expect("strongly_deza", None, sd)
        expect("ddg", None, report["ddg"])

    dr = report["distance_regular"]
    if connected:
        array = intersection_array(adj)
        expect("distance_regular.is_drg", array is not None, dr["is_drg"])
        if array is not None:
            expect("distance_regular.b", array[0], dr["b"])
            expect("distance_regular.c", array[1], dr["c"])
    else:
        expect("distance_regular", None, dr)


def check_analyze(lines: list[str], adjs, reports, path: str) -> int:
    """Check an ``analyze --json`` output; returns the number of reports that
    record a contradiction."""
    if not isinstance(reports, list) or len(reports) != len(lines):
        raise OracleError(f"{path}: expected {len(lines)} reports")
    for i, (adj, report) in enumerate(zip(adjs, reports)):
        check_report(adj, report, f"{path}:{i + 1}")
    return sum(report_contradicts(r) for r in reports)


FILTER_PREDICATES = {
    "deza": lambda adj: deza_params(adj) is not None,
    "strongly-deza": strongly_deza,
    "ddg": divisible_design,
    "drg": lambda adj: intersection_array(adj) is not None,
}


def filter_matches(predicate: str, lines: list[str], adjs) -> list[str]:
    """The lines the ``filter`` verb must pass through, in input order."""
    test = FILTER_PREDICATES[predicate]
    return [line for line, adj in zip(lines, adjs) if test(adj)]


def check_filter(predicate: str, expected: list[str], output: str) -> None:
    """The matches must be exactly the oracle's, in order; strongly-Deza and
    divisible-design matches are thereby Deza graphs with b > a."""
    got = output.splitlines()
    if got != expected:
        extra = sorted(set(got) - set(expected))[:3]
        missing = sorted(set(expected) - set(got))[:3]
        raise OracleError(
            f"filter {predicate}: {len(got)} matches, expected {len(expected)}"
            f" (unexpected {extra}, missing {missing})"
        )


def check_verify_table(output: str) -> int:
    """Rows of the ``verify-paper`` table; every row must read PASS."""
    lines = output.splitlines()
    rows = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    failed = [line for line in rows if line.startswith("FAIL")]
    if failed:
        raise OracleError(f"verify-paper: {len(failed)} rows failed: {failed[0]}")
    summary = f"-- {len(rows)}/{len(rows)} checks passed"
    if not rows or lines[-1] != summary:
        raise OracleError(f"verify-paper: last line is not {summary!r}")
    return len(rows)
