"""Spans around the package's public functions, installed from outside.

A layer is a module of the package; each traced name below is one of its
public functions (or a group of them).  ``Tracer.install`` replaces every
reference to a traced function -- in its defining module and at each
``from .x import f`` site in the package -- by a wrapper that records a
span: name, start, end, parent span and the stream index of the graph being
processed.  Spans stay in memory until the invocation ends.  ``uninstall``
puts every original object back.

A span's self time is its duration minus the durations of its direct
children, so the self times of one invocation add up to its root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

ROOT_SPAN = "cli"
PARSE = "graph6.parse_graph6"

#: traced name -> (module, attribute) pairs that define it
TARGETS: dict[str, list[tuple[str, str]]] = {
    "charpoly.char_poly": [("dezakit.charpoly", "char_poly")],
    # the third-party eigensolvers a float factor proposal may use
    "spectra.eigensolver": [
        ("mpmath", "eigsy"),
        ("numpy.linalg", "eigvalsh"),
        ("numpy.linalg", "eigh"),
    ],
    "spectra.exact_spectrum": [("dezakit.spectra", "exact_spectrum")],
    PARSE: [("dezakit.graph6", "parse_graph6")],
    **{
        f"kernels.{name}": [("dezakit._kernels", name)]
        for name in (
            "pair_values",
            "class_values",
            "all_pairs_distances",
            "intersection_counts",
            "triangle_count",
        )
    },
    **{
        f"graphs.{name}": [("dezakit.graphs", name)]
        for name in ("structural_profile", "distance_data", "common_neighbour_matrix")
    },
    **{
        f"deza.{name}": [("dezakit.deza", name)]
        for name in (
            "detect_deza",
            "detect_srg",
            "children",
            "is_strongly_deza",
            "is_divisible_design",
            "child_spectra_formula",
        )
    },
    "distreg.intersection_numbers": [("dezakit.distreg", "intersection_numbers")],
    "distreg.classifiers": [
        ("dezakit.distreg", name)
        for name in ("drg_deza_classification", "ddg_drg_classification", "is_antipodal")
    ],
    # the six classifiers report.build_report calls
    "theorems.classifiers": [
        ("dezakit.theorems", name)
        for name in (
            "check_trace_identity",
            "singular_check",
            "classify_eigenvalue_count",
            "classify_last_case",
            "classify_square_case",
            "strongly_deza_witness",
        )
    ],
    "report.build_report": [("dezakit.report", "build_report")],
    "verify.run_all": [("dezakit.verify", "run_all")],
}


def _family_functions() -> list[tuple[str, str]]:
    """Every public function defined in dezakit.families."""
    module = sys.modules["dezakit.families"]
    return [
        ("dezakit.families", name)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self) -> None:
        #: finished spans: (id, name, start, end, parent id or -1, graph, self_s, error)
        self.spans: list[tuple] = []
        self.graph: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None):
        stack = self._stack
        if name == PARSE and len(stack) == 1:
            # a parse directly under the CLI starts the next stream graph
            self.graph = 0 if self.graph is None else self.graph + 1
        frame = [self._next_id, 0.0]  # id, time covered by child spans
        self._next_id += 1
        stack.append(frame)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            parent = -1
            if stack:
                stack[-1][1] += duration
                parent = stack[-1][0]
            self.spans.append(
                (frame[0], name, start, end, parent, self.graph, duration - frame[1], error)
            )

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every site that holds it."""
        targets = dict(TARGETS, families=_family_functions())
        package = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "dezakit" or name.startswith("dezakit."))
        ]
        for traced_name, sites in targets.items():
            for module_name, attr in sites:
                home = sys.modules.get(module_name)
                if home is None or not hasattr(home, attr):
                    continue  # a dependency the package no longer uses
                original = getattr(home, attr)
                wrapper = self._wrap(traced_name, original)
                for module in {id(m): m for m in [home, *package]}.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per traced name: calls, self seconds and raised exception counts;
        plus the calls of each name under each parent name."""
        names = {span[0]: span[1] for span in self.spans}
        layers: dict[str, dict] = {}
        under: dict[str, int] = {}
        for _, name, _, _, parent, _, self_s, error in self.spans:
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": {}})
            entry["calls"] += 1
            entry["self_s"] += self_s
            if error:
                entry["errors"][error] = entry["errors"].get(error, 0) + 1
            key = f"{name}<{names.get(parent, '')}"
            under[key] = under.get(key, 0) + 1
        root = [s for s in self.spans if s[4] == -1]
        return {
            "layers": layers,
            "calls_under": under,
            "root_s": sum(s[3] - s[2] for s in root),
            "self_total_s": sum(s[6] for s in self.spans),
            "graphs": 0 if self.graph is None else self.graph + 1,
        }
