"""One pass of a perfbench workload, run as its own process by run.py.

    python3 perfbench/child.py [--trace PATH] cli ARG...
    python3 perfbench/child.py [--trace PATH] queries JSON

``cli`` runs ``hyperhodge.cli.main(ARG...)``, exactly what
``python -m hyperhodge ARG...`` runs; run.py uses it only for traced passes.
``queries`` evaluates a JSON list of ``[kind, i, k]`` point queries, each
by ``recursive_D``/``recursive_d`` on a fresh memo, timed alone and checked
against ``closed_D``/``closed_d``, and prints one JSON line of results.

With ``--trace PATH`` the tracer is installed before the pass and the spans
and their summary are written under PATH when it ends.
"""

from __future__ import annotations

import json
import sys
import time


def run_queries(queries) -> int:
    from hyperhodge import values
    results = []
    seen = set()
    for kind, i, k in queries:
        recursive = values.recursive_D if kind == "D" else values.recursive_d
        closed = values.closed_D if kind == "D" else values.closed_d
        entry = {"key": [kind, i, k], "repeat": (kind, i, k) in seen}
        seen.add((kind, i, k))
        start = time.perf_counter()
        try:
            value = recursive(i, k)
        except Exception as exc:  # a failed query is reported, not fatal
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["latency_s"] = time.perf_counter() - start
            entry["ok"] = value == closed(i, k)
        results.append(entry)
    print(json.dumps(results))
    return 0


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    tracer = None
    if trace_path is not None:
        import tracer as tracing
        tracer = tracing.install()
    start = time.perf_counter()
    if mode == "cli":
        from hyperhodge import cli
        code = cli.main(rest)
    elif mode == "queries":
        code = run_queries(json.loads(rest[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    end = time.perf_counter()
    if tracer is not None:
        tracer.write_spans(trace_path + ".spans")
        summary = tracer.summary()
        summary["pass_s"] = end - start
        # time spent on the trace itself, for run.py to take off the wall time
        summary["post_s"] = time.perf_counter() - end
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
