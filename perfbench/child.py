"""One dezakit CLI invocation in a fresh process, as a user runs it.

    python3 child.py RECORD TRACE [-- CLI-ARGS...]

Set-up ends once ``dezakit.cli`` is imported; the parent times it from the
moment it spawned this process, and the process's own CPU time up to then
is recorded too.  Then ``dezakit.cli.main(CLI-ARGS)`` runs
with the process's own stdout and stderr, and a JSON record of its timings
and peak RSS is written to RECORD.  With TRACE=1 the package's public
functions are wrapped in spans first (see tracing.py); otherwise the only
wrapper is one timer per graph around ``report.build_report`` when the verb
is ``analyze``.  Without CLI-ARGS the process only sets up and exits.
"""

import sys
import time

import dezakit.cli

READY = time.monotonic()
CPU_READY = time.process_time()


def main() -> None:
    import json
    import resource

    import dezakit.report

    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    record = {"ready": READY, "cpu_ready": CPU_READY, "package": dezakit.cli.__file__}
    if argv:
        tracer = None
        latencies: list[float] = []
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        elif argv[0] == "analyze":
            build_report = dezakit.report.build_report

            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return build_report(*args, **kwargs)
                finally:
                    latencies.append(time.perf_counter() - start)

            dezakit.report.build_report = timed

        start = time.monotonic()
        cpu_start = time.process_time()
        if tracer is None:
            rc = dezakit.cli.main(argv)
        else:
            rc = tracer.call(tracing.ROOT_SPAN, dezakit.cli.main, (argv,))
        sys.stdout.flush()
        end = time.monotonic()
        cpu_end = time.process_time()

        record.update(start=start, end=end, cpu_work=cpu_end - cpu_start, rc=rc,
                      latencies=latencies)
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kernels = sys.modules.get("dezakit._kernels")
        record["numba_enabled"] = getattr(kernels, "NUMBA_ENABLED", None)
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.summary()
            with open(record_path + ".spans.jsonl", "w", encoding="ascii") as out:
                for span in tracer.spans:
                    out.write(json.dumps(span) + "\n")
    with open(record_path, "w", encoding="ascii") as out:
        json.dump(record, out)


if __name__ == "__main__":
    main()
