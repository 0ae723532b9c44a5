"""dezakit benchmark: CLI workloads, an output oracle and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Each CLI invocation runs in a fresh process (perfbench/child.py),
as users run it, so the spectrum cache and lazy imports start cold every
time.  The load is a closed loop with one caller: one batch job at a time,
single process, single thread (BLAS/OpenMP pools capped at one thread), so
no layer queues work and waiting time is zero by construction.

Workloads (inputs are generated from the seed before anything is timed):

  screen  filter deza / strongly-deza / ddg / drg, one invocation each, over
          a stream of small random regular graphs (n = 8..20)
  survey  analyze --json over a stream of 1000+ graphs (n = 8..14)
  large   analyze --json on relabelled J(10,3) and Paley(61)
  paper   verify-paper

BENCHMARK.json declares survey, large and paper.  screen stays runnable by
hand (per-filter rates for the filter verb), but it is not declared: on a
shared 2-vCPU host its run-to-run spread reached the largest bound allowed.

A pass runs the workload's invocations once over fresh inputs, and with a
hash seed (PYTHONHASHSEED) drawn from the seed like the inputs, so that set
iteration orders, and with them the work done, repeat with the seed.  Passes
repeat while one more pass of the mean length fits in S seconds (at least
one pass).  With --trace 0 the result holds the end-to-end metrics:

  setup_s      median CPU time of an invocation until dezakit.cli is imported
  work_cpu_s   median over passes of the pass's CPU time after set-up
  peak_rss_mb  largest peak RSS of an invocation's own process

Times are the invocation's own CPU time (user + system).  The invocations are
single-threaded and do little I/O, so this is their wall time without the
time they waited for a CPU, which on a shared virtual host (steal time) comes
and goes with the other guests' load.  The wall times are printed too, as
details (setup_wall_s, work_wall_s).

An item is a graph through one invocation, or one verify-paper row.  An item
whose processing fails (a crash, a missing or wrong output, a FAIL row) fails
the whole run, so a result that prints always has "failed": 0.  A report that
records a contradiction (a reported inconsistency, which makes analyze exit 1)
still passed the oracle; such reports are counted and printed with their
share (contradiction_share), apart from the failures.

With --trace 1 one untraced and one traced pass over the same inputs give the
per-layer metrics and the tracing overhead.  Every pass is checked by
oracle.py; a mismatch prints a result with "correct": false and exits 1.  The
last line of stdout is the result; details (per-verb rates, latency
percentiles, digests, versions) are printed above it and saved under
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench_out"

#: set-up samples per run: invocations first, then set-up-only probes
SETUP_SAMPLES = 16
#: a single invocation is killed after this many seconds
INVOCATION_TIMEOUT = 170
#: BLAS/OpenMP pools in the child processes (the loop is single-threaded)
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
FILTERS = ("deza", "strongly-deza", "ddg", "drg")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- passes -----------------------------------------------------------------


@dataclass
class Invocation:
    label: str
    setup_s: float
    setup_wall_s: float
    work_s: float
    work_wall_s: float
    rss_mb: float
    rc: int
    stdout: str
    digest: str
    latencies: list[float]
    numba_enabled: object = None
    trace: dict | None = None


@dataclass
class Pass:
    """Inputs and invocations of one pass, and the oracle for its outputs."""

    files: dict[str, list[str]]
    invocations: list[tuple[str, list[str]]]
    #: outputs by label -> (items attempted, contradicting reports); raises
    #: oracle.OracleError
    check: Callable[[dict[str, Invocation]], tuple[int, int]]
    #: PYTHONHASHSEED of the pass's invocations
    hash_seed: int = 0


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def screen_pass(seed: int, index: int) -> Pass:
    path = f"screen-{index}.g6"
    lines = gen.small_stream(_rng("screen", seed, index), range(8, 21), 400, 10)

    def check(results):
        adjs = [oracle.decode_graph6(line) for line in lines]
        for predicate in FILTERS:
            out = results[f"filter_{predicate}"]
            if out.rc != 0:
                raise oracle.OracleError(f"filter {predicate} exited {out.rc}")
            expected = oracle.filter_matches(predicate, lines, adjs)
            oracle.check_filter(predicate, expected, out.stdout)
        return len(FILTERS) * len(lines), 0

    return Pass({path: lines}, [(f"filter_{p}", ["filter", p, path]) for p in FILTERS], check)


def _analyze_pass(name: str, index: int, lines: list[str]) -> Pass:
    path = f"{name}-{index}.g6"

    def check(results):
        out = results["analyze"]
        if out.rc not in (0, 1):
            raise oracle.OracleError(f"analyze exited {out.rc}")
        try:
            reports = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            raise oracle.OracleError(f"analyze output is not JSON: {exc}") from None
        adjs = [oracle.decode_graph6(line) for line in lines]
        contradictions = oracle.check_analyze(lines, adjs, reports, path)
        if (out.rc == 1) != (contradictions > 0):
            raise oracle.OracleError(
                f"analyze exited {out.rc} with {contradictions} contradicting reports")
        return len(lines), contradictions

    return Pass({path: lines}, [("analyze", ["analyze", "--json", path])], check)


def survey_pass(seed: int, index: int) -> Pass:
    lines = gen.small_stream(_rng("survey", seed, index), range(8, 15), 140, 3)
    return _analyze_pass("survey", index, lines)


def large_pass(seed: int, index: int) -> Pass:
    rng = _rng("large", seed, index)
    lines = [
        gen.graph6(n, gen.relabel(rng, n, edges))
        for n, edges in (gen.johnson(10, 3), gen.paley_prime(61))
    ]
    return _analyze_pass("large", index, lines)


def paper_pass(seed: int, index: int) -> Pass:
    def check(results):
        out = results["verify_paper"]
        rows = oracle.check_verify_table(out.stdout)
        if out.rc != 0:
            raise oracle.OracleError(f"verify-paper exited {out.rc}")
        return rows, 0

    return Pass({}, [("verify_paper", ["verify-paper"])], check)


WORKLOADS: dict[str, Callable[[int, int], Pass]] = {
    "screen": screen_pass,
    "survey": survey_pass,
    "large": large_pass,
    "paper": paper_pass,
}


# -- processes --------------------------------------------------------------


class Runner:
    """Spawns the child processes of one run inside a private work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0
        self.env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")
        }
        self.env.update(THREAD_CAPS, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, label: str, argv: list[str], trace: bool, hash_seed: int) -> Invocation:
        self.count += 1
        stem = self.work / f"inv{self.count}"
        record_path = Path(f"{stem}.json")
        out_path = Path(f"{stem}.out")
        cmd = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0"]
        if argv:
            cmd += ["--", *argv]
        env = dict(self.env, PYTHONHASHSEED=str(hash_seed))
        with open(out_path, "wb") as out, open(f"{stem}.err", "wb") as err:
            spawned = time.monotonic()
            try:
                subprocess.run(cmd, cwd=self.work, env=env, stdout=out, stderr=err,
                               timeout=INVOCATION_TIMEOUT, check=False)
            except subprocess.TimeoutExpired:
                raise oracle.OracleError(f"{label} ran over {INVOCATION_TIMEOUT} s") from None
        if not record_path.exists():
            tail = Path(f"{stem}.err").read_text(errors="replace")[-2000:]
            raise oracle.OracleError(f"{label} died before finishing:\n{tail}")
        record = json.loads(record_path.read_text())
        if not Path(record["package"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported dezakit from {record['package']}, not {ROOT / 'src'}")
        data = out_path.read_bytes()
        setup, setup_wall = record["cpu_ready"], record["ready"] - spawned
        if not argv:
            return Invocation(label, setup, setup_wall, 0.0, 0.0, 0.0, 0, "", "", [])
        return Invocation(
            label=label,
            setup_s=setup,
            setup_wall_s=setup_wall,
            work_s=record["cpu_work"],
            work_wall_s=record["end"] - record["start"],
            rss_mb=record["maxrss_kb"] / 1024,
            rc=record["rc"],
            stdout=data.decode("utf-8", errors="replace"),
            digest=hashlib.sha256(data).hexdigest(),
            latencies=record["latencies"],
            numba_enabled=record["numba_enabled"],
            trace=record.get("trace"),
        )

    def run_pass(self, p: Pass, trace: bool) -> dict[str, Invocation]:
        for name, lines in p.files.items():
            path = self.work / name
            if not path.exists():
                path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        return {label: self.spawn(label, argv, trace, p.hash_seed)
                for label, argv in p.invocations}


# -- statistics -------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values: list[float]) -> float | None:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(values) * (100 - q) / 100 >= 10:
            return q
    return None


def digest_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def metadata(seed: int, numba_enabled) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": numba_enabled,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "seed": seed,
    }


# -- per-layer metrics from the traced pass --------------------------------

LAYER_CALLS_AND_SELF = (
    "charpoly.char_poly",
    "spectra.eigensolver",
    "spectra.exact_spectrum",
    "graph6.parse_graph6",
    "kernels.pair_values",
    "kernels.class_values",
    "kernels.all_pairs_distances",
    "kernels.intersection_counts",
    "kernels.triangle_count",
    "graphs.structural_profile",
    "graphs.distance_data",
    "graphs.common_neighbour_matrix",
    "deza.detect_deza",
    "deza.detect_srg",
    "deza.children",
    "deza.is_strongly_deza",
    "deza.is_divisible_design",
    "deza.child_spectra_formula",
    "distreg.intersection_numbers",
    "distreg.classifiers",
    "theorems.classifiers",
    "report.build_report",
)
LAYER_SELF_ONLY = ("cli", "families", "verify.run_all")


def layer_metrics(traced: dict[str, Invocation], overhead: float) -> tuple[dict, dict]:
    layers: dict[str, dict] = {}
    under: dict[str, int] = {}
    graphs = 0
    for inv in traced.values():
        summary = inv.trace
        # the self times of an invocation must add up to its traced wall time
        wall = inv.work_wall_s
        if abs(summary["self_total_s"] - wall) > 0.01 * wall + 0.005:
            raise BenchError(
                f"{inv.label}: self times add up to {summary['self_total_s']:.4f} s,"
                f" traced wall time is {wall:.4f} s"
            )
        graphs += summary["graphs"]
        for name, entry in summary["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": {}})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
            for err, count in entry["errors"].items():
                acc["errors"][err] = acc["errors"].get(err, 0) + count
        for key, count in summary["calls_under"].items():
            under[key] = under.get(key, 0) + count

    def get(name: str, key: str):
        return layers.get(name, {}).get(key, 0)

    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in LAYER_SELF_ONLY:
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    spectra = get("spectra.exact_spectrum", "calls")
    computed = under.get("charpoly.char_poly<spectra.exact_spectrum", 0)
    metrics["spectra.cache_hit_ratio"] = (1 - computed / spectra if spectra else 0.0, "ratio")
    metrics["spectra.nonquadratic.count"] = (
        layers.get("spectra.exact_spectrum", {}).get("errors", {}).get(
            "NonQuadraticSpectrumError", 0), "count")
    for name in ("deza.detect_deza", "deza.children"):
        metrics[f"{name}.calls_per_graph"] = (
            get(name, "calls") / graphs if graphs else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    total = sum(get(name, "self_s") for name in layers)
    bases = {
        "graphs_traced": graphs,
        "cache_hit_ratio_base": {"exact_spectrum_calls": spectra,
                                 "char_poly_calls_under_exact_spectrum": computed},
        "traced_self_total_s": total,
        "self_share": {name: layers[name]["self_s"] / total for name in sorted(layers)}
        if total else {},
        "errors": {name: e["errors"] for name, e in layers.items() if e["errors"]},
    }
    return metrics, bases


# -- the run ----------------------------------------------------------------


def execute(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    make = WORKLOADS[workload]
    runner = Runner(work)
    #: (pass, outputs by label, items per invocation)
    passes: list[tuple[Pass, dict[str, Invocation], int]] = []
    attempted = contradictions = 0
    measured = 0.0
    details: dict = {"workload": workload, "seconds": seconds, "trace": int(trace)}

    def checked(p: Pass, results: dict[str, Invocation]) -> int:
        nonlocal attempted, contradictions
        a, c = p.check(results)
        attempted += a
        contradictions += c
        return a // len(results)

    def hash_seed(index: int) -> int:
        return _rng(f"hash-{workload}", seed, index).randrange(1, 2**32)

    while True:
        p = make(seed, len(passes))
        p.hash_seed = hash_seed(len(passes))
        started = time.monotonic()
        results = runner.run_pass(p, trace=False)
        measured += time.monotonic() - started
        passes.append((p, results, checked(p, results)))
        if trace or measured * (len(passes) + 1) / len(passes) > seconds:
            break

    invocations = [inv for _, results, _ in passes for inv in results.values()]
    numba = invocations[0].numba_enabled
    details["meta"] = metadata(seed, numba)
    details["passes"] = [
        {
            "inputs": {name: digest_lines(lines) for name, lines in p.files.items()},
            "hash_seed": p.hash_seed,
            "outputs": {label: inv.digest for label, inv in results.items()},
            "items": items,
            "work_s": {label: inv.work_s for label, inv in results.items()},
            "work_wall_s": {label: inv.work_wall_s for label, inv in results.items()},
        }
        for p, results, items in passes
    ]
    details["attempted"] = attempted
    details["contradictions"] = contradictions
    details["contradiction_share"] = contradictions / attempted

    if trace:
        p, untraced, _ = passes[0]
        traced = runner.run_pass(p, trace=True)
        checked(p, traced)
        for label, inv in traced.items():
            if inv.digest != untraced[label].digest:
                raise oracle.OracleError(f"{label}: traced output differs from untraced")
        base = sum(inv.work_wall_s for inv in untraced.values())
        overhead = sum(inv.work_wall_s for inv in traced.values()) / base
        metrics, bases = layer_metrics(traced, overhead)
        details["trace_bases"] = dict(bases, untraced_work_wall_s=base)
        _keep_spans(work, workload, seed)
    else:
        setups = list(invocations)
        for i in range(max(0, SETUP_SAMPLES - len(setups))):
            setups.append(runner.spawn("probe", [], False, hash_seed(len(passes) + i)))

        def pass_sum(key: str) -> list[float]:
            return [sum(getattr(inv, key) for inv in r.values()) for _, r, _ in passes]

        metrics = {
            "setup_s": (statistics.median(inv.setup_s for inv in setups), "s"),
            "work_cpu_s": (statistics.median(pass_sum("work_s")), "s"),
            "peak_rss_mb": (max(inv.rss_mb for inv in invocations), "MB"),
        }
        details["setup_samples"] = len(setups)
        details["setup_wall_s"] = statistics.median(inv.setup_wall_s for inv in setups)
        details["work_wall_s"] = statistics.median(pass_sum("work_wall_s"))
        details["verbs"] = verb_details(passes)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "details": details,
    }


def verb_details(passes) -> dict:
    """The per-verb figures behind work_cpu_s (CPU seconds), each with its base."""
    out: dict = {}
    for label in passes[0][1]:
        rates = [items / r[label].work_s for _, r, items in passes]
        out[f"{label}_items_per_s"] = statistics.median(rates)
        out[f"{label}_s"] = statistics.median(r[label].work_s for _, r, _ in passes)
    latencies = [x for _, r, _ in passes for inv in r.values() for x in inv.latencies]
    if latencies:
        out["analyze_p50_ms"] = 1000 * nearest_rank(latencies, 50)
        q = tail_percentile(latencies)
        if q is not None:
            out[f"analyze_p{q:g}_ms"] = 1000 * nearest_rank(latencies, q)
        out["analyze_latency_samples"] = len(latencies)
    return out


def _keep_spans(work: Path, workload: str, seed: int) -> None:
    dest = OUT_DIR / f"{workload}-seed{seed}-spans"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for path in work.glob("*.spans.jsonl"):
        shutil.move(str(path), dest / path.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dezakit" / "cli.py").is_file():
        print(f"perfbench: no dezakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except oracle.OracleError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    details = result.pop("details")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, details=details), indent=1) + "\n")
    for key in ("setup_wall_s", "work_wall_s"):
        if key in details:
            print(f"# {key} = {details[key]}")
    for key, value in details.get("verbs", {}).items():
        print(f"# {key} = {value}")
    print(f"# contradiction_share = {details['contradiction_share']:.4f}"
          f" ({details['contradictions']} of {details['attempted']})")
    print(f"# details: {OUT_DIR.relative_to(ROOT) / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
