"""Analysis reports: one JSON-ready record collecting every classification.

Reports are plain dicts built from JSON-native types only, so a report
serialised and re-parsed compares equal to the in-memory record, and the
key order (hence the rendered output) is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from . import deza as deza_mod
from . import distreg
from . import theorems
from .eigenvalues import Eigenvalue
from .errors import ContradictionError
from .graphs import Graph, shares_stack, structural_profile, triangle_count
from .spectra import NonQuadraticSpectrumError, crt_route, exact_spectrum, prefill_spectra

SCHEMA = "deza-report/1"


def _attempt(fn, *args):
    """Run one classifier and record its result; an input outside its
    hypotheses becomes 'skipped' (naming the failed hypothesis), a
    falsified instance check becomes 'contradiction' (reported, never
    swallowed)."""
    try:
        return _record(fn(*args))
    except ContradictionError as exc:
        return {"contradiction": str(exc)}
    except ValueError as exc:  # InfeasibleError and SpectrumShapeError too
        return {"skipped": str(exc)}


def _record(value):
    """JSON-native form of a result record: dataclass fields in declared
    order, eigenvalues as strings, tuples as lists."""
    if isinstance(value, Eigenvalue):  # a dataclass too, so tested first
        return str(value)
    if is_dataclass(value):
        return {f.name: _record(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_record(item) for item in value]
    return value


def _compares_children(g: Graph) -> bool:
    """Whether g's report compares the spectra of g's children with the
    closed formula: g has Deza parameters with b > a and a quadratic
    spectrum."""
    params = deza_mod.detect_deza(g)
    if params is None or params.b == params.a:
        return False
    try:
        exact_spectrum(g)
    except NonQuadraticSpectrumError:
        return False
    return True


def build_report(g: Graph, source: str = "graph") -> dict:
    profile = structural_profile(g)
    report: dict = {
        "schema": SCHEMA,
        "source": source,
        "n": g.n,
        "edges": g.edge_count(),
        "regular_degree": profile.regular_degree,
        "connected": profile.connected,
        "bipartite": profile.bipartite,
        "triangles": profile.triangle_count,
        "components": profile.component_count,
    }

    spec = None
    try:
        spec = exact_spectrum(g)
        report["spectrum"] = spec.to_json()
        report["spectrum_text"] = str(spec)
        report["spectrum_error"] = None
        report["distinct_eigenvalues"] = spec.distinct_count()
        report["distinct_abs_values"] = spec.distinct_abs_count()
    except NonQuadraticSpectrumError as exc:
        report["spectrum"] = None
        report["spectrum_text"] = None
        report["spectrum_error"] = str(exc)
        report["distinct_eigenvalues"] = None
        report["distinct_abs_values"] = None

    params = deza_mod.detect_deza(g)
    report["deza"] = None if params is None else _record(params)
    srg = deza_mod.detect_srg(g)
    report["srg"] = None if srg is None else {
        "n": srg.n, "k": srg.k, "lambda": srg.lam, "mu": srg.mu
    }

    report["strongly_deza"] = None
    report["ddg"] = None
    if params is not None and params.b > params.a:
        sd = deza_mod.is_strongly_deza(g)
        entry: dict = {
            "verdict": sd.verdict,
            "child_a_srg": None if sd.child_a_srg is None else list(sd.child_a_srg.as_tuple()),
            "child_b_srg": None if sd.child_b_srg is None else list(sd.child_b_srg.as_tuple()),
            "child_a_spectrum": None,
            "child_b_spectrum": None,
            "formula_spectra_match": None,
        }
        if _compares_children(g):
            entry["formula_spectra_match"] = deza_mod.verify_child_formula(g)
            pair = deza_mod.children(g)
            entry["child_a_spectrum"] = exact_spectrum(pair.child_a).to_json()
            entry["child_b_spectrum"] = exact_spectrum(pair.child_b).to_json()
        report["strongly_deza"] = entry
        ddg = deza_mod.is_divisible_design(g)
        report["ddg"] = None if ddg is None else {
            "v": ddg.v, "k": ddg.k, "lambda1": ddg.lam1,
            "lambda2": ddg.lam2, "m": ddg.m, "n": ddg.n,
        }

    dr_entry = None
    if profile.connected:
        array, witness = distreg.intersection_numbers(g)
        if array is None:
            dr_entry = {"is_drg": False, "witness_pair": list(witness)}
        else:
            dr_entry = {
                "is_drg": True,
                "diameter": array.d,
                "b": list(array.b),
                "c": list(array.c),
                "a": list(array.a),
                "k_i": list(array.k_i),
                "antipodal": distreg.is_antipodal(g),
            }
            if array.d >= 3:
                dr_entry["deza_case"] = _attempt(distreg.drg_deza_classification, g)
        if report["ddg"] is not None:
            dr_entry["ddg_case"] = _attempt(distreg.ddg_drg_classification, g)
    report["distance_regular"] = dr_entry

    # which entries appear is the schema's rule; whether each classifier
    # applies is its own
    checks: dict = {}
    if spec is not None:
        checks["trace_identity"] = _attempt(theorems.check_trace_identity, spec)
        checks["singular"] = _attempt(theorems.singular_check, g)
        if params is not None:
            checks["eigenvalue_count"] = _attempt(theorems.classify_eigenvalue_count, g)
            if params.b > params.a:
                checks["last_case"] = _attempt(theorems.classify_last_case, g)
                if sd.verdict:
                    checks["square_case"] = _attempt(theorems.classify_square_case, g)
                checks["witness"] = _attempt(theorems.strongly_deza_witness, g)
    report["theorems"] = checks
    return report


def prefill_reports(graphs) -> None:
    """Store on a chunk of graphs, and on their children, the facts
    build_report reads, before the first report.  First the structural
    facts of the graphs that share a stack (graphs.shares_stack; a larger
    graph would run alone anyway, so it computes them in its report and
    the chunk never holds them), each by one kernel call per order and
    stack: degrees, M^2 and the class values detect_deza reads
    (deza.fill_class_values), the triangle count, then the distances and
    the intersection numbers of the connected graphs
    (distreg.fill_intersection_numbers).  Then their
    CRT-route spectra (spectra.prefill_spectra), and then the class values
    and the spectra of the children whose spectra build_report compares with
    the formula (_compares_children).  A child has an edge, so it can take
    the CRT route only at an order where a graph of maximum degree 1 does;
    no other graph's children are built here."""
    small = [g for g in graphs if shares_stack(g)]
    deza_mod.fill_class_values(small)
    triangle_count.fill(small)
    distreg.fill_intersection_numbers(small)
    prefill_spectra(graphs)
    pairs = [deza_mod.children(g) for g in graphs if crt_route(g.n, 1) and _compares_children(g)]
    children = [child for pair in pairs for child in (pair.child_a, pair.child_b)]
    deza_mod.fill_class_values(children)
    prefill_spectra(children)


def report_inconsistencies(report: dict) -> list[str]:
    """Reportable internal inconsistencies: a false formula-vs-direct match
    flag or any recorded contradiction.  Always empty on healthy inputs.
    A contradiction is recorded only by _attempt, whose entries are the
    distance_regular cases and the theorems, so only those are read."""
    issues = []
    sd = report.get("strongly_deza")
    if sd and sd.get("formula_spectra_match") is False:
        issues.append("child spectra formula disagrees with constructed children")
    dr = report.get("distance_regular") or {}
    entries = [(f"distance_regular.{key}", dr[key])
               for key in ("deza_case", "ddg_case") if key in dr]
    entries += [(f"theorems.{name}", entry) for name, entry in report.get("theorems", {}).items()]
    issues += [f"{path}: {entry['contradiction']}" for path, entry in entries
               if "contradiction" in entry]
    return issues


def render_text(report: dict) -> str:
    """Human-readable one-graph summary."""
    lines = [f"== {report['source']}"]
    degree = report["regular_degree"]
    lines.append(
        f"n={report['n']} edges={report['edges']} "
        + (f"{degree}-regular" if degree is not None else "irregular")
        + f" connected={report['connected']} bipartite={report['bipartite']}"
        + f" triangles={report['triangles']}"
    )
    if report["spectrum_error"]:
        lines.append(f"spectrum: ERROR {report['spectrum_error']}")
    else:
        lines.append(
            f"spectrum: {report['spectrum_text']}  "
            f"(distinct {report['distinct_eigenvalues']}, "
            f"abs {report['distinct_abs_values']})"
        )
    deza = report["deza"]
    srg = report["srg"]
    lines.append(
        "deza: " + (f"({deza['n']},{deza['k']},{deza['b']},{deza['a']})" if deza else "no")
        + "   srg: " + (f"({srg['n']},{srg['k']},{srg['lambda']},{srg['mu']})" if srg else "no")
    )
    sd = report["strongly_deza"]
    if sd:
        lines.append(
            f"strongly Deza: {sd['verdict']}"
            + (f"  child A SRG {sd['child_a_srg']}" if sd["child_a_srg"] else "")
            + (f"  child B SRG {sd['child_b_srg']}" if sd["child_b_srg"] else "")
            + (
                f"  formula/direct match: {sd['formula_spectra_match']}"
                if sd["formula_spectra_match"] is not None
                else ""
            )
        )
    if report["ddg"]:
        d = report["ddg"]
        lines.append(
            f"divisible design: (v={d['v']},k={d['k']},l1={d['lambda1']},"
            f"l2={d['lambda2']},m={d['m']},n={d['n']})"
        )
    dr = report["distance_regular"]
    if dr and dr.get("is_drg"):
        lines.append(
            "distance-regular: {" + ",".join(map(str, dr["b"])) + ";"
            + ",".join(map(str, dr["c"])) + "}"
            + f" antipodal={dr['antipodal']}"
            + (f" case={dr['deza_case'].get('case')}" if "deza_case" in dr else "")
            + (f" ddg-case={dr['ddg_case'].get('case')}" if "ddg_case" in dr else "")
        )
    elif dr and "ddg_case" in dr:
        lines.append(f"distance-regular: no  ddg-case={dr['ddg_case'].get('case')}")
    for name, entry in report.get("theorems", {}).items():
        if "skipped" in entry:
            continue
        lines.append(f"{name}: " + json.dumps(entry, sort_keys=False))
    return "\n".join(lines)


def matches_expectation(report: dict, expected: dict) -> list[str]:
    """Recursive subset comparison; returns human-readable mismatches."""
    problems: list[str] = []

    def walk(exp, got, path):
        if isinstance(exp, dict) and isinstance(got, dict):
            for key, value in exp.items():
                if key not in got:
                    problems.append(f"{path}.{key}: missing")
                else:
                    walk(value, got[key], f"{path}.{key}")
        elif exp != got:
            problems.append(f"{path}: expected {exp!r}, got {got!r}")

    walk(expected, report, report.get("source", "report"))
    return problems
