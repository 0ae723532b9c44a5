"""Command-line front end.

Verbs: analyze, construct, verify-paper, filter, spectrum, children,
cospectral.  Exit codes: 0 success, 1 verification failure, 2 input error,
64 usage error, 141 (128 + SIGPIPE) when the reader closes stdout early.
Exit 2 comes from ``main`` alone: a verb raises ``InputError`` (a bad
graph6 line, no graph, a non-quadratic ``cospectral`` input, a malformed
``--expect`` file, a closed stdin) or the OS refuses a file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from collections import Counter, deque
from itertools import islice

from . import deza as deza_mod
from . import distreg
from . import families
from . import report as report_mod
from . import verify as verify_mod
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import Graph, is_connected
from .spectra import NonQuadraticSpectrumError, exact_spectrum, prefill_spectra

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_USAGE = 64
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a filter stopped by a closed pipe

#: analyze and spectrum read this many graphs at a time and store the chunk's
#: facts on its graphs first: for analyze the structural facts of the graphs
#: that share a stack (n <= 80), one kernel call per order and stack
#: (report.prefill_reports); for both the spectra,
#: one stacked Hessenberg pass per order, then one stacked GF(p) step for
#: the factor tables the store lacks (spectra.prefill_spectra); and for
#: analyze the class values and spectra of the children build_report checks
CHUNK = 256


class InputError(Exception):
    """Bad input; ``main`` prints the message and exits 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _lines(path: str):
    """Input lines, read lazily; each byte that is not ASCII becomes a lone
    surrogate, so parse_graph6 reports it against its own line.  Each chunk
    ends at a newline, which is a line break to ``splitlines`` too, so the
    lines are numbered as splitting the whole text would number them."""
    if path == "-":
        if sys.stdin is None:  # started with stdin closed
            raise InputError("-: stdin is closed")
        handle = contextlib.nullcontext(sys.stdin.buffer)  # left open
    else:
        handle = open(path, "rb")
    with handle as chunks:
        for chunk in chunks:
            yield from chunk.decode("ascii", "surrogateescape").splitlines()


def _graphs(path: str):
    """Yield (source, Graph) per nonempty input line; a bad line raises
    InputError."""
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        source = f"{path}:{lineno}"
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            raise InputError(f"{source}: {exc}") from None
        yield source, g


def _chunked_graphs(path: str, prefill):
    """_graphs(path), read CHUNK graphs at a time: prefill(graphs) runs on
    each chunk before its first graph is yielded.  A graph is let go once
    yielded, so the caller alone decides how long it lives."""
    graphs = _graphs(path)
    while chunk := deque(islice(graphs, CHUNK)):
        prefill([g for _, g in chunk])
        while chunk:
            yield chunk.popleft()


def _first_graph(path: str, missing: str) -> Graph:
    """The graph on the first nonempty line, parsing no other line."""
    for _, g in _graphs(path):
        return g
    raise InputError(missing)


def _emit(text: str, out_path: str | None) -> None:
    """Print text, or write it to out_path as UTF-8: the bytes print sends to
    a UTF-8 stdout (text renderings hold √; JSON escapes it)."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    graphs = _chunked_graphs(args.path, report_mod.prefill_reports)
    reports = [report_mod.build_report(g, source) for source, g in graphs]

    issues = [
        issue for rep in reports for issue in report_mod.report_inconsistencies(rep)
    ]

    if args.json:
        _emit(json.dumps(reports, indent=1), args.output)
    else:
        _emit("\n\n".join(report_mod.render_text(rep) for rep in reports), args.output)

    for issue in issues:
        print(f"inconsistency: {issue}", file=sys.stderr)
    if issues:
        return EXIT_VERIFY

    if args.expect:
        with open(args.expect, "r", encoding="utf-8") as handle:
            try:
                expected = json.load(handle)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise InputError(f"{args.expect}: {exc}") from None
        if not isinstance(expected, list):
            expected = [expected]
        problems = []
        if len(expected) != len(reports):
            problems.append(f"expected {len(expected)} reports, got {len(reports)}")
        for exp, rep in zip(expected, reports):
            problems.extend(report_mod.matches_expectation(rep, exp))
        for problem in problems:
            print(f"expectation mismatch: {problem}", file=sys.stderr)
        if problems:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_construct(args) -> int:
    try:
        g = families.construct(args.family, args.args)
    except ValueError as exc:
        print(f"construct: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(write_graph6(g), args.output)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    rows = verify_mod.run_all()
    if args.json:
        payload = [dataclasses.asdict(row) for row in rows]
        _emit(json.dumps(payload, indent=1), args.output)
    else:
        _emit(verify_mod.render_table(rows), args.output)
    return EXIT_OK if all(row.passed for row in rows) else EXIT_VERIFY


def _filter_key(predicate: str, g: Graph):
    """Parameter tuple when the graph matches, else None."""
    if predicate == "deza":
        params = deza_mod.detect_deza(g)
        return None if params is None else params.as_tuple()
    if predicate == "strongly-deza":
        result = deza_mod.is_strongly_deza(g)
        return result.params.as_tuple() if result.verdict else None
    if predicate == "ddg":
        params = deza_mod.is_divisible_design(g)
        return None if params is None else params.as_tuple()
    if predicate == "drg":
        if not is_connected(g):
            return None
        array = distreg.intersection_array(g)
        return None if array is None else str(array)
    raise AssertionError(predicate)


def cmd_filter(args) -> int:
    counts: Counter = Counter()
    matched = 0
    total = 0
    # the one verb that goes on past a bad line
    for lineno, line in enumerate(_lines(args.path), start=1):
        if not line.strip():
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            message = f"{args.path}:{lineno}: {exc}"
            if args.strict:
                raise InputError(message) from None
            print(f"warning: {message}", file=sys.stderr)
            continue
        total += 1
        key = _filter_key(args.predicate, g)
        if key is not None:
            matched += 1
            counts[key] += 1
            print(line)
    print(f"filter {args.predicate}: {matched}/{total} matched", file=sys.stderr)
    for key in sorted(counts, key=str):
        print(f"  {counts[key]} x {key}", file=sys.stderr)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    payload = []
    for source, g in _chunked_graphs(args.path, prefill_spectra):
        try:
            spec = exact_spectrum(g)
            payload.append({"source": source, "spectrum": spec.to_json(), "text": str(spec)})
        except NonQuadraticSpectrumError as exc:
            payload.append({"source": source, "error": str(exc)})
    if args.json:
        _emit(json.dumps(payload, indent=1), args.output)
    else:
        _emit("\n".join(p.get("text") or f"ERROR {p['error']}" for p in payload),
              args.output)
    return EXIT_OK


def cmd_children(args) -> int:
    g = _first_graph(args.path, "children: no graph in input")
    params = deza_mod.detect_deza(g)
    if params is None:
        print("children: input is not a Deza graph", file=sys.stderr)
        return EXIT_VERIFY
    pair = deza_mod.children(g)
    if args.json:
        _emit(json.dumps({
            "deza": list(params.as_tuple()),
            "child_a": write_graph6(pair.child_a),
            "child_b": write_graph6(pair.child_b),
        }, indent=1), args.output)
    else:
        _emit(
            f"deza {params.as_tuple()}\n"
            f"{write_graph6(pair.child_a)}\n{write_graph6(pair.child_b)}",
            args.output,
        )
    return EXIT_OK


def cmd_cospectral(args) -> int:
    specs = []
    for path in (args.path_a, args.path_b):
        g = _first_graph(path, f"cospectral: no graph in {path}")
        try:
            specs.append(exact_spectrum(g))
        except NonQuadraticSpectrumError as exc:
            raise InputError(f"cospectral: {path}: {exc}") from None
    same = specs[0] == specs[1]
    if args.json:
        _emit(json.dumps({
            "cospectral": same,
            "spectrum_a": specs[0].to_json(),
            "spectrum_b": specs[1].to_json(),
        }, indent=1), args.output)
    else:
        _emit(f"cospectral: {same}\nA: {specs[0]}\nB: {specs[1]}", args.output)
    return EXIT_OK if same else EXIT_VERIFY


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dezakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, path=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("-o", "--output", metavar="PATH", help="write output to PATH")
        if path:
            p.add_argument("path", help="file of graph6 lines, or - for stdin")

    p = sub.add_parser("analyze", help="full classification report per graph")
    common(p)
    p.add_argument("--expect", metavar="FILE",
                   help="JSON expectation records; mismatches exit 1")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("construct", help="build a named family member")
    p.add_argument("family", help="one of: " + ", ".join(sorted(families.CATALOG)))
    p.add_argument("args", nargs="*", help="family arguments")
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify-paper", help="run the built-in reproduction suite")
    common(p, path=False)
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("filter", help="pass through graphs matching a predicate")
    p.add_argument("predicate", choices=("deza", "strongly-deza", "ddg", "drg"))
    p.add_argument("--strict", action="store_true",
                   help="fail on parse errors instead of skipping")
    p.add_argument("path", help="file of graph6 lines, or - for stdin")
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("spectrum", help="exact spectrum per graph")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("children", help="Deza children of the first graph")
    common(p)
    p.set_defaults(fn=cmd_children)

    p = sub.add_parser("cospectral", help="compare the spectra of two graphs")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(fn=cmd_cospectral)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader has gone: the final flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:
        print(f"dezakit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
