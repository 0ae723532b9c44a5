"""The built-in reproduction suite.

Every check evaluates a concrete identity or classification on a concrete
graph with pinned expected values and exact comparisons (no tolerances
anywhere).  Checks 1..15 are the release gate; the S-rows exercise the
remaining classifiers over the same corpus.  `dezakit verify-paper` prints
one row per check and fails if any row fails.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import deza as deza_mod
from . import distreg
from . import families
from . import graphs as graphs_mod
from . import report as report_mod
from . import spectra as spectra_mod
from . import theorems
from .charpoly import char_poly, poly_eval
from .eigenvalues import Eigenvalue, Spectrum
from .errors import ContradictionError, SpectrumShapeError
from .graph6 import parse_graph6s, write_graph6s
from .graphs import Graph, bipartite_double, disjoint_union, line_graph


@dataclass(frozen=True)
class CheckRow:
    criterion: str
    name: str
    expected: str
    actual: str
    passed: bool


def _row(criterion: str, name: str, expected, actual) -> CheckRow:
    passed = expected == actual
    return CheckRow(criterion, name, str(expected), str(actual), passed)


def bareiss_determinants(mats) -> list[int]:
    """The exact determinant of each integer matrix of a stack of one shape,
    by fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of all of
    them at once.

    A step replaces each entry x of the block below and right of the pivot
    p by (x p - y z) / q, where y and z are entries of the pivot's column
    and row and q is the previous pivot, and the quotient is exact.  All of
    x, p, y and z lie in the step's trailing block (the pivot's rows and
    columns onwards), so with t the largest |entry| of that block across
    the stack, |x p| and |y z| are at most t^2, the difference at most 2t^2
    and the quotient no more.  So while 2t^2 < 2^63 the step runs in int64
    without overflow; once it does not, the stack moves to Python ints for
    good, and a stack with an entry outside int64 starts in them.  t is
    max(max, -min): abs would wrap at -2^63.

    A zero pivot swaps in the first row below it with a nonzero entry in
    its column, in its own matrix only.  A matrix with none is singular:
    its block is set to zero and its pivot to 1, so every later step of it
    is exact and its determinant comes out 0."""
    try:
        m = np.asarray(mats).astype(np.int64, casting="safe")
    except TypeError:
        m = np.array(mats, dtype=object)
    k, n = m.shape[:2]
    sign = np.ones(k, dtype=np.int64)
    prev = np.ones(k, dtype=m.dtype)
    for col in range(n - 1):
        if m.dtype != object:
            block = m[:, col:, col:]
            t = max(int(block.max()), -int(block.min()))
            if 2 * t * t >= 1 << 63:
                m, prev = m.astype(object), prev.astype(object)
        for i in np.flatnonzero(m[:, col, col] == 0):
            below = np.flatnonzero(m[i, col + 1 :, col])
            if below.size:
                r = col + 1 + int(below[0])
                m[i, [col, r]] = m[i, [r, col]]
                sign[i] = -sign[i]
            else:
                m[i, col:, col:] = 0
                m[i, col, col] = 1
        pivot = m[:, col, col].copy()
        rest = m[:, col + 1 :, col + 1 :]
        rest[...] = (rest * pivot[:, None, None]
                     - m[:, col + 1 :, col, None] * m[:, None, col, col + 1 :]) // prev[:, None, None]
        prev = pivot
    return (m[:, n - 1, n - 1] * sign).tolist()


# ---------------------------------------------------------------------------
# corpus


@cache
def corpus() -> dict[str, Graph]:
    """Every named asset used by the checks, keyed deterministically."""
    rook = line_graph(families.complete_multipartite([4, 4]))
    out = {
        "octahedron-line-graph": families.octahedron_line_graph(),
        "heawood": families.heawood(),
        "icosahedron": families.icosahedron(),
        "line-petersen": line_graph(families.petersen()),
        "johnson-6-3": families.johnson(6, 3),
        "klein24": families.bundled_graph("klein24"),
        "taylor-paley-13": families.taylor_double_cover(families.paley(13)),
        "biplane-11": families.biplane11(),
        "cube": families.trivial_design_incidence(3),
        "taylor-c5": families.taylor_double_cover(families.cycle(5)),
        "taylor-paley-9": families.taylor_double_cover(families.paley(9)),
        "petersen": families.petersen(),
        "paley-13": families.paley(13),
        "paley-9": families.paley(9),
        "c5": families.cycle(5),
        "c6": families.cycle(6),
        "c7": families.cycle(7),
        "k444": families.complete_multipartite([4, 4, 4]),
        "k33": families.complete_multipartite([3, 3]),
        "3k4": families.disjoint_cliques(3, 4),
        "2k7": families.disjoint_cliques(2, 7),
        "2k33": disjoint_union([families.complete_multipartite([3, 3])] * 2),
        "2rook4": disjoint_union([rook, rook]),
        "johnson-7-3": families.johnson(7, 3),
        "desargues": bipartite_double(families.petersen()),
    }
    return out


#: the strongly Deza assets in the shape the spectral theorems address
#: (connected, at least four distinct eigenvalues)
THEOREM_CORPUS = (
    "octahedron-line-graph",
    "heawood",
    "icosahedron",
    "line-petersen",
    "johnson-6-3",
    "klein24",
    "taylor-paley-13",
    "biplane-11",
    "cube",
)

#: Deza assets with b > a whose spectra are exactly representable
CHILD_FORMULA_CORPUS = THEOREM_CORPUS + (
    "taylor-c5",
    "taylor-paley-9",
    "petersen",
    "paley-13",
    "paley-9",
    "c5",
    "c6",
    "k444",
    "k33",
    "3k4",
    "2k7",
    "2k33",
    "2rook4",
)

#: distance-regular assets of diameter >= 3 for the a1/c2 biconditional
DRG_CORPUS = (
    "c6",
    "c7",
    "cube",
    "heawood",
    "icosahedron",
    "line-petersen",
    "johnson-6-3",
    "johnson-7-3",
    "klein24",
    "taylor-paley-13",
    "desargues",
)

#: cospectral-mate counts reported in the literature; recorded only, the
#: enumeration behind them is far beyond desk scale
COSPECTRAL_COUNTS_UNVERIFIED = {
    "icosahedron": "1",
    "line-petersen": "1",
    "johnson-6-3": "6",
    "klein24": "10",
    "taylor-paley-13": ">=1173",
}


def _spec(values) -> Spectrum:
    return Spectrum(values)


def _int(z: int) -> Eigenvalue:
    return Eigenvalue.integer(z)


def _root(m: int) -> Eigenvalue:
    return Eigenvalue.sqrt_pair(m)[0]


TABLE1_SPECTRA = {
    "icosahedron": [(_int(5), 1), (_root(5), 3), (_int(-1), 5), (-_root(5), 3)],
    "line-petersen": [(_int(4), 1), (_int(2), 5), (_int(-1), 4), (_int(-2), 5)],
    "johnson-6-3": [(_int(9), 1), (_int(3), 5), (_int(-1), 9), (_int(-3), 5)],
    "klein24": [(_int(7), 1), (_root(7), 8), (_int(-1), 7), (-_root(7), 8)],
    "taylor-paley-13": [(_int(13), 1), (_root(13), 7), (_int(-1), 13), (-_root(13), 7)],
}


# ---------------------------------------------------------------------------
# the fifteen gate criteria


def criterion_1() -> Iterator[CheckRow]:
    g = corpus()["octahedron-line-graph"]
    params = deza_mod.detect_deza(g)
    expected_spec = _spec([(_int(6), 1), (_int(2), 3), (_int(0), 2), (_int(-2), 6)])
    yield _row("1", "octahedron-line-graph deza parameters", (12, 6, 3, 2), params.as_tuple())
    yield _row("1", "octahedron-line-graph exact spectrum", expected_spec,
               spectra_mod.exact_spectrum(g))


def criterion_2() -> Iterator[CheckRow]:
    for name, entries in TABLE1_SPECTRA.items():
        g = corpus()[name]
        ia = distreg.intersection_array(g)
        yield _row("2", f"{name} distance-regular d=3",
                   True, ia is not None and ia.d == 3)
        yield _row("2", f"{name} a1 = c2", True,
                   ia is not None and ia.a[0] == ia.c[1])
        yield _row("2", f"{name} strongly Deza", True,
                   deza_mod.is_strongly_deza(g).verdict)
        yield _row("2", f"{name} spectrum", _spec(entries),
                   spectra_mod.exact_spectrum(g))


def criterion_3() -> Iterator[CheckRow]:
    for name in CHILD_FORMULA_CORPUS:
        g = corpus()[name]
        yield _row("3", f"{name} child spectra formula = construction",
                   True, deza_mod.verify_child_formula(g))
    hw = corpus()["heawood"]
    formula_a, _ = deza_mod.child_spectra_formula(
        spectra_mod.exact_spectrum(hw), deza_mod.detect_deza(hw)
    )
    yield _row("3", "heawood bipartite -k maps to one (-7)",
               1, formula_a.multiplicity(_int(-7)))


def criterion_4() -> Iterator[CheckRow]:
    for name in ("petersen", "paley-13", "paley-9", "k444", "c5"):
        g = corpus()[name]
        params = deza_mod.detect_srg(g)
        yield _row("4", f"{name} SRG parameters reproduce spectrum",
                   spectra_mod.exact_spectrum(g), theorems.srg_spectrum(params))
    for name in ("paley-13", "c5"):
        eigen = theorems.srg_eigen(deza_mod.detect_srg(corpus()[name]))
        yield _row("4", f"{name} conference case", False, eigen.r.is_integer)


def criterion_5() -> Iterator[CheckRow]:
    for name in THEOREM_CORPUS:
        spec = spectra_mod.exact_spectrum(corpus()[name])
        pairing = theorems.check_trace_identity(spec)
        yield _row("5", f"{name} trace identity", True, pairing.holds)


def criterion_6() -> Iterator[CheckRow]:
    cases = [
        # name, (n, k, theta2, m2, m5), four_eig m2, expected positive root
        ("heawood", (14, 3, -3, 0, 1), 1, _root(2)),
        ("icosahedron", (12, 5, -1, 0, 5), 5, _root(5)),
        ("johnson-6-3", (20, 9, -1, 0, 9), 9, _int(3)),
        ("taylor-paley-13", (28, 13, -1, 0, 13), 13, _root(13)),
    ]
    for name, (n, k, th2, m2, m5), m2four, expected in cases:
        plus, minus = theorems.remaining_pair_five_eig(n, k, th2, m2, m5)
        yield _row("6", f"{name} five-eigenvalue relation",
                   (expected, -expected), (plus, minus))
        plus4, minus4 = theorems.remaining_pair_four_eig(n, k, th2, m2four)
        yield _row("6", f"{name} four-eigenvalue relation",
                   (expected, -expected), (plus4, minus4))


def criterion_7() -> Iterator[CheckRow]:
    expected_cases = {
        "octahedron-line-graph": "square-i",
        "icosahedron": "square-ii",
    }
    for name in THEOREM_CORPUS:
        case = theorems.classify_square_case(corpus()[name])
        yield _row("7", f"{name} square trichotomy verifies",
                   True, case.case in ("square-i", "square-ii", "square-iii"))
        if name in expected_cases:
            yield _row("7", f"{name} case label", expected_cases[name], case.case)
        if name == "icosahedron":
            yield _row("7", "icosahedron pair multiplicity = half child mult = 3",
                       (3, 3), (case.witness["pair_mult"], case.witness["half_child_mult"]))


def criterion_8() -> Iterator[CheckRow]:
    singular_names = []
    for name in THEOREM_CORPUS:
        res = theorems.singular_check(corpus()[name])
        if res.singular:
            singular_names.append(name)
            yield _row("8", f"{name} singular: integral with 4 distinct",
                       (True, True), (res.integral, res.four_distinct))
    yield _row("8", "singular assets in the corpus",
               ["octahedron-line-graph"], singular_names)


def criterion_9() -> Iterator[CheckRow]:
    expect = {
        "heawood": ("last-i", "√2", 6),
        "icosahedron": ("last-ii", "√5", 3),
        "johnson-6-3": ("last-ii", "3", 5),
    }
    for name, (label, theta3, m3) in expect.items():
        case = theorems.classify_last_case(corpus()[name])
        yield _row("9", f"{name} final classification",
                   (label, theta3, m3),
                   (case.case, case.witness["theta3"], case.witness["m3"]))


def criterion_10() -> Iterator[CheckRow]:
    for q, t in ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3)):
        fam = theorems.affine_family_params(q, t)
        yield _row("10", f"affine family ({q},{t}) closure identities",
                   (q ** (2 * (t - 1)), fam.k_squared),
                   (fam.k_minus_lam1, fam.lam2_v))
    fam22 = theorems.affine_family_params(2, 2)
    ddg = deza_mod.is_divisible_design(corpus()["octahedron-line-graph"])
    yield _row("10", "affine (2,2) equals octahedron-line-graph DDG",
               fam22.params.as_tuple(), ddg.as_tuple())


def criterion_11() -> Iterator[CheckRow]:
    for q in (3, 4, 5):
        res = distreg.unitary_nonisotropics_check(q)
        yield _row("11", f"unitary nonisotropics arithmetic q={q} (not constructed)",
                   q * q * (q * q - q + 1),
                   1 + res.mult_plus + q**3 + res.mult_minus)


def criterion_12() -> Iterator[CheckRow]:
    for name, value in (("icosahedron", 2), ("klein24", 2), ("taylor-paley-13", 6)):
        check = distreg.antipodal_from_spectrum(corpus()[name])
        yield _row("12", f"{name} n | k^2-1 with a1 = c2 = (k^2-1)/n",
                   (True, value), (check.divides, check.a1c2))


def criterion_13() -> Iterator[CheckRow]:
    for name in DRG_CORPUS:
        g = corpus()[name]
        ia = distreg.intersection_array(g)
        by_array = ia.a[0] == 0 or ia.a[0] == ia.c[1]
        by_counts = deza_mod.detect_deza(g) is not None
        yield _row("13", f"{name} Deza iff a1 in {{0, c2}}", by_array, by_counts)
        if ia.d >= 3:
            case = distreg.drg_deza_classification(g)
            yield _row("13", f"{name} classification consistent",
                       True, case.case in ("deza-a1-zero", "deza-a1-eq-c2", "not-deza"))


def criterion_14() -> Iterator[CheckRow]:
    rng = random.Random(181181)
    lines = write_graph6s(_random_graphs(rng, (rng.randint(1, 40) for _ in range(1000))))
    failures = sum(a != b for a, b in zip(write_graph6s(parse_graph6s(lines)), lines, strict=True))
    yield _row("14", "graph6 round trip on 1000 random graphs", 0, failures)

    bad_traces = 0
    spectral_assets = 0
    for g in corpus().values():
        try:
            spec = spectra_mod.exact_spectrum(g)
        except spectra_mod.NonQuadraticSpectrumError:
            continue
        spectral_assets += 1
        if spec.sum_of_squares() != 2 * g.edge_count():
            bad_traces += 1
    yield _row("14", f"trace and norm identities on all {spectral_assets} "
               "spectral assets", 0, bad_traces)

    # every (asset, point) matrix, eliminated in one stack per order
    evals = [(char_poly(g).coeffs, x, x * np.eye(g.n, dtype=np.int64) - g.adj)
             for g in corpus().values() for x in (-2, -1, 0, 1, 2)]
    dets = graphs_mod.stacked(bareiss_determinants, [m for _, _, m in evals], np.shape)
    bad_evals = sum(poly_eval(coeffs, x) != det
                    for (coeffs, x, _), det in zip(evals, dets, strict=True))
    yield _row("14", "char poly vs exact determinant at 5 points per asset",
               0, bad_evals)


def criterion_15() -> Iterator[CheckRow]:
    pairs = (("taylor-c5", "icosahedron"), ("taylor-paley-9", "johnson-6-3"))
    for a, b in pairs:
        yield _row("15", f"{a} cospectral with {b}", True,
                   spectra_mod.exact_spectrum(corpus()[a])
                   == spectra_mod.exact_spectrum(corpus()[b]))
    recorded = ", ".join(f"{k}:{v}" for k, v in COSPECTRAL_COUNTS_UNVERIFIED.items())
    yield _row("15", f"cospectral-mate counts recorded unverified [{recorded}]",
               True, True)


@cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v in row-major order; criterion 14 asks for n <= 40."""
    return np.triu_indices(n, 1)


def _random_graphs(rng: random.Random, orders) -> list[Graph]:
    """G(n, 1/2) for each n of orders, in order: one rng.random() draw per
    pair u < v, in row-major order.  orders may be lazy, so each order can
    be drawn from rng after the graph before it.

    A graph's draws are made in one call: getrandbits(64 m) is filled, least
    significant first, with the same 2m Mersenne-Twister words that m calls
    of random() consume, and random() < 0.5 exactly when the first word of
    its pair has bit 31 clear.  So the edges and the generator state after
    each graph are those of the per-pair draws.  The graphs of each order
    are built as one stack.
    """
    draws = []
    for n in orders:
        m = n * (n - 1) // 2
        draws.append((n, rng.getrandbits(64 * m).to_bytes(8 * m, "little")))

    def build(batch):
        n = batch[0][0]
        words = np.frombuffer(b"".join(chunk for _, chunk in batch), "<u4")
        edges = (words[::2] < 1 << 31).reshape(len(batch), -1)
        rows, cols = _upper_pairs(n)
        a = np.zeros((len(batch), n, n), dtype=np.uint8)
        a[:, rows, cols] = edges
        a[:, cols, rows] = edges
        return graphs_mod.graphs_from_stack(a)

    return graphs_mod.stacked(build, draws, lambda draw: (draw[0], draw[0]))


# ---------------------------------------------------------------------------
# supplementary rows: the remaining classifiers over the same corpus


def eigenvalue_count_cases() -> Iterator[CheckRow]:
    count_cases = {
        "3k4": "prop3-2eig",
        "2k33": "prop3-3eig-disconn",
        "2rook4": "prop3-3eig-disconn",
        "petersen": "prop3-3eig-srg",
        "k444": "prop3-3eig-srg",
        "octahedron-line-graph": "prop3-4eig",
        "taylor-paley-13": "prop3-4eig",
    }
    for name, label in count_cases.items():
        case = theorems.classify_eigenvalue_count(corpus()[name])
        yield _row("S", f"{name} eigenvalue-count case", label, case.case)


def witness_branches() -> Iterator[CheckRow]:
    witness_cases = {
        "octahedron-line-graph": "strongly-deza",
        "heawood": "strongly-deza",
        "c6": "strongly-deza",
        "desargues": "halved-strongly-deza",
    }
    for name, label in witness_cases.items():
        yield _row("S", f"{name} spectral-characterisation branch",
                   label, theorems.strongly_deza_witness(corpus()[name]).branch)


def divisible_design_cases() -> Iterator[CheckRow]:
    ddg_cases = {
        "k444": "complete-multipartite",
        "heawood": "incidence-symmetric-design",
        "biplane-11": "incidence-symmetric-design",
        "icosahedron": "antipodal-d3-a1-eq-c2",
        "klein24": "antipodal-d3-a1-eq-c2",
        "octahedron-line-graph": "not-distance-regular",
    }
    for name, label in ddg_cases.items():
        yield _row("S", f"{name} divisible-design classification",
                   label, distreg.ddg_drg_classification(corpus()[name]).case)


def antipodal_cases() -> Iterator[CheckRow]:
    for name, expected in (("icosahedron", True), ("johnson-6-3", True), ("heawood", False)):
        yield _row("S", f"{name} antipodal", expected, distreg.is_antipodal(corpus()[name]))


def cospectral_mates() -> Iterator[CheckRow]:
    for pair in (("icosahedron", "taylor-c5"), ("johnson-6-3", "taylor-paley-9")):
        case = distreg.cosp_deza_check(corpus()[pair[0]], corpus()[pair[1]])
        yield _row("S", f"cospectral Deza mate {pair[1]} of {pair[0]}",
                   "same-intersection-numbers", case.case)


def distance_regular_arithmetic() -> Iterator[CheckRow]:
    counts, constant = distreg.distance3_counts(corpus()["icosahedron"])
    yield _row("S", "icosahedron distance-3 counts constant 1",
               (True, 1), (constant, counts[0]))
    for tup in distreg.FEASIBLE_UNBUILT:
        yield _row("S", f"feasible unbuilt tuple {tup} arithmetic",
                   True, distreg.feasible_tuple_check(*tup))


def spectral_remarks() -> Iterator[CheckRow]:
    try:
        theorems.check_trace_identity(spectra_mod.exact_spectrum(corpus()["petersen"]))
        shape_error = False
    except SpectrumShapeError:
        shape_error = True
    yield _row("S", "petersen trace identity raises the shape error",
               True, shape_error)

    # non-integral corpus spectra must contain an opposite pair of equal
    # multiplicities (the remark after the four-eigenvalue theorem)
    for name in THEOREM_CORPUS:
        spec = spectra_mod.exact_spectrum(corpus()[name])
        if spec.is_integral():
            continue
        has_balanced_pair = any(
            ev.sign() > 0 and spec.multiplicity(-ev) == m for ev, m in spec
        )
        yield _row("S", f"{name} non-integral: an opposite pair balances",
                   True, has_balanced_pair)


def child_parameters() -> Iterator[CheckRow]:
    # children of each strongly Deza corpus asset: parameters recovered
    # from the child spectra match the combinatorial detector
    for name in THEOREM_CORPUS:
        pair = deza_mod.children(corpus()[name])
        agree = all(
            theorems.srg_params_from_spectrum(spectra_mod.exact_spectrum(child))
            == deza_mod.detect_srg(child)
            for child in (pair.child_a, pair.child_b)
        )
        yield _row("S", f"{name} child parameters recoverable from spectra",
                   True, agree)


def bipartite_cases() -> Iterator[CheckRow]:
    # bipartiteness of a connected regular graph is equivalent to -k
    for name in THEOREM_CORPUS + ("petersen", "c5", "desargues"):
        asset = corpus()[name]
        spec = spectra_mod.exact_spectrum(asset)
        minus_k = spec.multiplicity(Eigenvalue.integer(-asset.regular_degree())) > 0
        yield _row("S", f"{name} bipartite iff -k in spectrum",
                   graphs_mod.is_bipartite(asset), minus_k)
    yield _row("S", "non-quadratic spectrum detected on c7", True,
               _c7_detects())


def _c7_detects() -> bool:
    try:
        spectra_mod.exact_spectrum(corpus()["c7"])
    except spectra_mod.NonQuadraticSpectrumError as exc:
        return exc.degree == 6
    return False


def run_all() -> list[CheckRow]:
    """Every check's row.  Each criterion, and each section of the S rows,
    yields its rows; a contradiction, which means a bug, ends its section
    with a failed row naming it, after the rows it had made, and the other
    sections still run."""
    # the corpus as one chunk, as analyze reads its input: one stacked
    # pass per order for the spectra of its small graphs and their children
    report_mod.prefill_reports(list(corpus().values()))
    criteria = [(str(i), fn) for i, fn in enumerate((
        criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
        criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
        criterion_11, criterion_12, criterion_13, criterion_14, criterion_15,
    ), 1)] + [("S", fn) for fn in (
        eigenvalue_count_cases, witness_branches, divisible_design_cases, antipodal_cases,
        cospectral_mates, distance_regular_arithmetic, spectral_remarks, child_parameters,
        bipartite_cases,
    )]
    rows: list[CheckRow] = []
    for criterion, fn in criteria:
        try:
            rows.extend(fn())
        except ContradictionError as exc:
            rows.append(CheckRow(criterion, "runs without a contradiction",
                                 "no contradiction", str(exc), False))
    return rows


def render_table(rows: list[CheckRow]) -> str:
    lines = []
    width = max(len(r.name) for r in rows)
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        line = f"{status}  [{row.criterion:>2}] {row.name:<{width}}"
        if not row.passed:
            line += f"  expected={row.expected} actual={row.actual}"
        lines.append(line)
    failed = sum(not r.passed for r in rows)
    lines.append(f"-- {len(rows) - failed}/{len(rows)} checks passed")
    return "\n".join(lines)
