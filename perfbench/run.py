#!/usr/bin/env python3
"""hyperhodge benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (no install needed; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of a workload is its own process, so each pass pays interpreter
start and ``import hyperhodge`` as a user does.  Passes repeat while the
next one is expected to end within ``--seconds``, and every pass's output
is checked.

``--trace 0`` reports the end-to-end metrics (median over the run's passes;
quartiles and sample counts are printed).  ``--trace 1`` alternates plain and
traced passes of the same input and reports the per-layer metrics of a
traced pass (see tracer.py) together with the tracing overhead.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit.  Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = str(HERE / "child.py")
SPAWN = str(HERE / "spawn.py")

SETUP_SPAWNS = 9  # timed fresh-interpreter imports per run; median reported
CHILD_TIMEOUT_S = 150.0
PASS_START_CAP_S = 120.0  # no pass starts later, so a run ends within 180 s

# point_queries: cold recursive_D/recursive_d on a fresh memo per query.
# A block holds one query per (i, k point), the points spread geometrically
# over [QUERY_K_MIN, k_max]; k_max = 120 is what the run length affords, and
# nothing else sets it.  Each block has the same kinds at the same points,
# so blocks cost about the same whatever the seed.  Blocks run until the run
# length is used and at least 100 latencies are pooled (QUERY_SAMPLE_FLOOR),
# so the p90 tail always has at least ten samples beyond it.
QUERY_I = (1, 2, 3)
QUERY_K_MIN = 8
TAIL_PERCENTILE = 90
# One untimed cold deep query per run.  A fresh-memo recursive_D(2, k)
# raises RecursionError from k near 360 on; it is counted in ops_failed_frac
# and values.ops_failed, never in the latency samples.
DEEP_PROBE = ("D", 2, 400)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_spec():
    units = {"calls": "count", "total_s": "s", "self_s": "s",
             "mults": "computed_mults"}
    spec = []

    def spans(prefix, names, stats):
        for name in names:
            for stat in stats:
                spec.append((f"{prefix}.{name}.{stat}", units[stat], "lower"))

    spans("identities", ("P_poly", "Q_poly", "eqn_check", "hat_root_values",
                         "product_vanishing_sum", "alternating_power_sum"),
          ("calls", "total_s"))
    spans("symmetric", ("gen_product", "elementary"), ("calls", "total_s"))
    spans("algebra", ("DensePolynomial.mul", "DensePolynomial.add"),
          ("calls", "self_s"))
    spans("kernels", ("linear_product", "poly_mul"),
          ("calls", "self_s", "mults"))
    spec.append(("kernels.max_coeff_bits", "bits", "lower"))
    spans("values", ("base_value",), ("calls",))
    spec.append(("values.resolve_per_value", "ratio", "lower"))
    spans("values", ("recursive_D", "recursive_d", "table"),
          ("calls", "total_s"))
    spec += [("values.closed.hits", "count", "higher"),
             ("values.closed.misses", "count", "lower"),
             ("values.closed.hit_ratio", "ratio", "higher")]
    spans("localization", ("auxiliary_integral", "graph_contribution",
                           "vertex_integral", "enumerate_family"),
          ("calls", "self_s"))
    spans("algebra", ("laurent_sum",), ("calls", "self_s"))
    spans("cli", ("run_identity_suite", "run_cross_oracle_suite",
                  "run_localization_suite"), ("total_s",))
    spans("cli", ("main",), ("self_s",))
    for layer in LAYERS:
        spec.append((f"{layer}.ops_failed", "count", "lower"))
    spec += [("trace.wall_untraced_s", "s", "lower"),
             ("trace.wall_traced_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower"),
             ("trace.outside_spans_s", "s", "lower"),
             ("trace.spans", "count", "lower")]
    return tuple(spec)


LAYERS = ("cli", "identities", "symmetric", "kernels", "algebra", "values",
          "localization")
PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class CliWorkload:
    """A ``python -m hyperhodge`` command and the check on its output."""

    argv: tuple[str, ...]
    check: Callable[[int, bytes], Optional[str]]


def _suites_passed(code: int, out: bytes) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    if not out.endswith(b"all suites passed\n"):
        return "output lacks 'all suites passed'"
    return None


def _localization_checks(count: int):
    def check(code, out):
        problem = _suites_passed(code, out)
        if problem is None and \
                f"localization: {count} checks passed\n".encode() not in out:
            problem = f"output lacks 'localization: {count} checks passed'"
        return problem
    return check


def _table_sha256(digest: str):
    # pinned from the table bytes at the commit that added this benchmark
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        got = hashlib.sha256(out).hexdigest()
        return None if got == digest else f"table sha256 {got} != {digest}"
    return check


CLI_WORKLOADS = {
    "full": {
        "verify_g20": CliWorkload(("verify", "--max-g", "20"), _suites_passed),
        "table_bulk": CliWorkload(
            ("table", "--max-k", "60", "--format", "csv"),
            _table_sha256("a1f3125d75bd0def0ffc2bc3928e2a22"
                          "9b0d273ab1b668be539017e252d6b613")),
        "localization_sweep": CliWorkload(
            ("verify-localization", "--max-k", "50"),
            _localization_checks(646)),
    },
    "smoke": {
        "verify_g20": CliWorkload(("verify", "--max-g", "3"),
                                  _suites_passed),
        "table_bulk": CliWorkload(
            ("table", "--max-k", "8", "--format", "csv"),
            _table_sha256("dd3217d7ecbfdcc212b71066ab67e5bc"
                          "fc991ff371f4b6152d89cc1f1d7571aa")),
        "localization_sweep": CliWorkload(
            ("verify-localization", "--max-k", "8"),
            _localization_checks(16)),
    },
}
# size -> (k points per i, k_max)
QUERY_SHAPE = {"full": (6, 120), "smoke": (1, 8)}
QUERY_SAMPLE_FLOOR = {"full": 100, "smoke": 0}
WORKLOADS = ("verify_g20", "table_bulk", "localization_sweep",
             "point_queries")


def query_block(seed: int, block: int, points: int, k_max: int):
    """Block ``block`` of the seeded query stream: one query per (i, point).

    Kinds alternate along the points; the seed lowers each k by 0, 2 or 4
    (never below QUERY_K_MIN) and shuffles the order.
    """
    rng = random.Random(seed * 1_000_003 + block)
    ratio = (k_max / QUERY_K_MIN) ** (1 / max(points - 1, 1))
    queries = []
    for i in QUERY_I:
        for point in range(points):
            k = 2 * round(QUERY_K_MIN * ratio ** point / 2)
            k -= 2 * rng.randrange(3)
            queries.append(("Dd"[(i + point) % 2], i, max(k, QUERY_K_MIN)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


def _child_env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_child(argv) -> Pass:
    """Run one process through spawn.py: wall time, peak RSS and output."""
    OUT.mkdir(exist_ok=True)
    report = OUT / "spawn-report"
    report.unlink(missing_ok=True)
    with open(OUT / "stdout", "w+b") as out, \
            open(OUT / "stderr", "w+b") as err:
        launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", SPAWN, str(report), *argv],
            stdout=out, stderr=err, cwd=ROOT, env=_child_env(),
            start_new_session=True)
        try:
            launcher.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:  # timeout or interrupt: stop the whole group
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
            raise
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if launcher.returncode != 0:
        raise RuntimeError(f"spawn.py failed for {argv}: "
                           f"{stderr.decode(errors='replace')[-500:]}")
    wall, maxrss_kib, code = report.read_text().split()
    return Pass(float(wall), int(maxrss_kib) / 1024, int(code), stdout, stderr)


def measure_setup():
    """Fresh-interpreter ``import hyperhodge`` times and the kernel backend.

    One untimed import first compiles the bytecode.  A failed import ends
    the benchmark without a result.
    """
    argv = [sys.executable, "-c", "import hyperhodge, sys; "
            "sys.stdout.write(hyperhodge.KERNEL_BACKEND)"]
    times = []
    for attempt in range(SETUP_SPAWNS + 1):
        done = run_child(argv)
        if done.code != 0:
            sys.stderr.write(done.err.decode(errors="replace"))
            raise SystemExit("perfbench: cannot import hyperhodge from src/")
        if attempt:
            times.append(done.wall_s)
    return times, done.out.decode()


# ---------------------------------------------------------------------------
# statistics and output


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _print_stat(name, unit, values):
    """Print a sample's median, quartiles and size; return the median."""
    q1, median, q3 = quartiles(values)
    print(f"{name:<16} {median:.6g} {unit}  (median; q1 {q1:.6g}, "
          f"q3 {q3:.6g}; n={len(values)})")
    return median


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problem: Optional[str]):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def _query_results(done: Pass):
    """Per-query results of a queries pass, or a single problem string."""
    if done.code != 0:
        return None, f"queries pass exit code {done.code}: " \
                     f"{done.err.decode(errors='replace')[-300:]}"
    return json.loads(done.out), None


def _query_problem(entry) -> Optional[str]:
    if "error" in entry:
        return f"{entry['key']}: {entry['error']}"
    if not entry["ok"]:
        return f"{entry['key']}: recursive value differs from closed form"
    return None


# ---------------------------------------------------------------------------
# the runs


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 size: str = "full"):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.outcome = Outcome()
        self.latencies: list[float] = []
        self.repeats = 0
        self.generate_s = 0.0

    # -- one pass ---------------------------------------------------------

    def _block(self, index: int):
        start = time.perf_counter()
        block = query_block(self.seed, index, *QUERY_SHAPE[self.size])
        self.generate_s += time.perf_counter() - start
        return block

    def _argv(self, block, trace_path=None):
        traced = ["--trace", trace_path] if trace_path else []
        if self.workload == "point_queries":
            return [sys.executable, CHILD, *traced, "queries",
                    json.dumps(block)]
        argv = CLI_WORKLOADS[self.size][self.workload].argv
        if trace_path:
            return [sys.executable, CHILD, *traced, "cli", *argv]
        return [sys.executable, "-m", "hyperhodge", *argv]

    def run_pass(self, block=None, trace_path=None) -> Pass:
        """Run and check one pass; latencies of timed queries are pooled."""
        done = run_child(self._argv(block, trace_path))
        if self.workload != "point_queries":
            check = CLI_WORKLOADS[self.size][self.workload].check
            self.outcome.record(check(done.code, done.out))
            return done
        results, problem = _query_results(done)
        if problem is not None:
            for _ in block:
                self.outcome.record(problem)
            return done
        for entry in results:
            self.outcome.record(_query_problem(entry))
            if "latency_s" in entry:
                self.latencies.append(entry["latency_s"])
            self.repeats += entry["repeat"]
        return done

    def deep_probe(self, trace_path=None):
        """The untimed cold deep query: (problem or None, traced summary)."""
        done = run_child(self._argv([DEEP_PROBE], trace_path))
        results, problem = _query_results(done)
        if problem is None:
            problem = _query_problem(results[0])
        summary = _read_summary(trace_path) if trace_path else None
        return problem, summary

    def _more(self, started: float, cycle_s: float,
              sample_floor: int = 0) -> bool:
        """Start another cycle if it should end within the run length."""
        elapsed = time.perf_counter() - started
        if elapsed + cycle_s > PASS_START_CAP_S:
            return False
        return (elapsed + cycle_s <= self.seconds
                or len(self.latencies) < sample_floor)

    # -- end-to-end run ---------------------------------------------------

    def end_to_end(self):
        setup, backend = measure_setup()
        print(_env_line(backend))
        passes = []
        started = time.perf_counter()
        block_index = 0
        floor = (QUERY_SAMPLE_FLOOR[self.size]
                 if self.workload == "point_queries" else 0)
        cycle_s = 0.0
        while not passes or self._more(started, cycle_s, floor):
            cycle_start = time.perf_counter()
            block = None
            if self.workload == "point_queries":
                block = self._block(block_index)
                block_index += 1
            passes.append(self.run_pass(block))
            cycle_s = time.perf_counter() - cycle_start
        setup_s = [s + self.generate_s for s in setup]
        walls = [p.wall_s for p in passes]
        rss = [p.rss_mb for p in passes]
        metrics = {"setup_s": _print_stat("setup_s", "s", setup_s),
                   "wall_s": _print_stat("wall_s", "s", walls),
                   "peak_rss_mb": _print_stat("peak_rss_mb", "MB", rss)}
        print("pass walls (s):", " ".join(f"{w:.4f}" for w in walls))
        probe_failed = 0
        if self.workload == "point_queries":
            self._print_queries()
            problem, _ = self.deep_probe()
            probe_failed = problem is not None
            print(f"deep_probe       recursive_{DEEP_PROBE[0]}"
                  f"{DEEP_PROBE[1:]} on a fresh memo: "
                  + ("ok" if problem is None else f"FAILED ({problem})"))
        self._print_failed_frac(probe_failed)
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END}

    def _print_queries(self):
        samples = self.latencies
        ms = [s * 1000 for s in samples]
        _print_stat("query_p50_ms", "ms", ms)
        tail = statistics.quantiles(ms, n=100, method="inclusive")[
            TAIL_PERCENTILE - 1] if len(ms) > 1 else ms[0]
        beyond = sum(1 for m in ms if m > tail)
        print(f"query_tail_ms    {tail:.6g} ms  (p{TAIL_PERCENTILE}; "
              f"{beyond} samples beyond; n={len(ms)}; "
              f"k<={QUERY_SHAPE[self.size][1]})")
        print(f"repeat_key_share {self.repeats / len(samples):.6g} frac  "
              f"(queries whose key already ran in the same process)")

    def _print_failed_frac(self, probe_failed: int):
        attempted = self.outcome.attempted + (self.workload == "point_queries")
        failed = self.outcome.failed + probe_failed
        print(f"ops_failed_frac  {failed / attempted:.6g} frac  "
              f"(failed {failed} of {attempted}"
              + ("; the deep probe counts here, not in the JSON counts)"
                 if self.workload == "point_queries" else ")"))

    # -- traced run -------------------------------------------------------

    def traced(self):
        setup, backend = measure_setup()
        print(_env_line(backend))
        block = self._block(0) if self.workload == "point_queries" else None
        plain, traced, summaries = [], [], []
        started = time.perf_counter()
        cycle_s = 0.0
        while not traced or self._more(started, cycle_s):
            cycle_start = time.perf_counter()
            plain.append(self.run_pass(block).wall_s)
            path = str(OUT / f"trace-{self.workload}-{len(traced)}.json")
            done = self.run_pass(block, trace_path=path)
            summary = _read_summary(path)
            summaries.append(summary)
            traced.append(done.wall_s - summary["post_s"])
            cycle_s = time.perf_counter() - cycle_start
        probe_ops_failed = 0
        if self.workload == "point_queries":
            _, probe = self.deep_probe(str(OUT / "trace-deep-probe.json"))
            probe_ops_failed = probe["ops_failed"]["values"]
        for problem in _trace_self_test(summaries, traced):
            self.outcome.problems.append(problem)
        metrics = _layer_metrics(summaries, plain, traced)
        metrics["values.ops_failed"] += probe_ops_failed
        for name, unit, _ in PER_LAYER:
            print(f"{name:<44} {metrics[name]:.6g} {unit}")
        print(f"traced passes {len(traced)}, plain passes {len(plain)}; "
              f"spans and summaries in {OUT}")
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit, _ in PER_LAYER}

    def execute(self, trace: bool) -> dict:
        print(f"perfbench workload={self.workload} seed={self.seed} "
              f"seconds={self.seconds:g} trace={int(trace)}")
        metrics = self.traced() if trace else self.end_to_end()
        for problem in self.outcome.problems:
            print(f"CHECK FAILED: {problem}")
        return {"correct": not self.outcome.problems,
                "attempted": self.outcome.attempted,
                "failed": self.outcome.failed,
                "metrics": metrics}


def _env_line(backend: str) -> str:
    return (f"env python={platform.python_version()} nproc={os.cpu_count()} "
            f"kernel_backend={backend}")


def _read_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


COUNT_KEYS = ("calls", "spans", "ops_failed", "mults", "max_coeff_bits",
              "values_returned", "closed_hits", "closed_misses")


def _trace_self_test(summaries, traced_walls):
    """Problems found in the traced passes' own bookkeeping.

    Counts must repeat exactly between passes of the same input, and the
    self times must partition the time inside top-level spans, which must
    fit in the pass's wall time (the remainder is reported untraced).
    """
    problems = []
    first = summaries[0]
    for summary in summaries[1:]:
        for key in COUNT_KEYS:
            if summary[key] != first[key]:
                problems.append(f"trace count {key!r} differs between passes")
    for summary, wall in zip(summaries, traced_walls):
        if sum(summary["self_ns"]) != summary["top_level_ns"]:
            problems.append("self times do not sum to the top-level span time")
        if min(summary["self_ns"]) < 0:
            problems.append("negative self time")
        if summary["top_level_ns"] / 1e9 > wall:
            problems.append("span time exceeds the traced wall time")
    return problems


def _layer_metrics(summaries, plain_walls, traced_walls) -> dict:
    first = summaries[0]
    index = {name: i for i, name in enumerate(first["names"])}

    def span_median(key, name):
        return statistics.median(s[key][index[name]] for s in summaries) / 1e9

    metrics = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls" and span in index:
            metrics[name] = first["calls"][index[span]]
        elif field == "total_s" and span in index:
            metrics[name] = span_median("total_ns", span)
        elif field == "self_s" and span in index:
            metrics[name] = span_median("self_ns", span)
        elif field == "mults":
            metrics[name] = first["mults"][span]
    for layer in LAYERS:
        metrics[f"{layer}.ops_failed"] = first["ops_failed"][layer]
    metrics["kernels.max_coeff_bits"] = first["max_coeff_bits"]
    resolutions = first["calls"][index["values.base_value"]]
    returned = first["values_returned"]
    metrics["values.resolve_per_value"] = (resolutions / returned
                                           if returned else 0)
    hits, misses = first["closed_hits"], first["closed_misses"]
    metrics["values.closed.hits"] = hits
    metrics["values.closed.misses"] = misses
    metrics["values.closed.hit_ratio"] = (hits / (hits + misses)
                                          if hits + misses else 0)
    plain = statistics.median(plain_walls)
    traced = statistics.median(traced_walls)
    metrics["trace.wall_untraced_s"] = plain
    metrics["trace.wall_traced_s"] = traced
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.outside_spans_s"] = statistics.median(
        wall - s["top_level_ns"] / 1e9
        for wall, s in zip(traced_walls, summaries))
    metrics["trace.spans"] = first["spans"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperhodge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hyperhodge sources under {SRC}")
    result = Run(args.workload, args.seed, args.seconds).execute(
        bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
