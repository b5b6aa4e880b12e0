"""Command-line front end: value tables and the verification suites.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(an unwritable ``--out`` path included).
The data stream (table output) is byte-deterministic for a fixed
configuration; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import io
import random
import sys
from fractions import Fraction
from typing import Optional

from . import values
from .errors import DomainError, IdentityReport, VerificationError

TABLE_COLUMNS = ("kind", "i", "k", "num", "den")


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite imports the modules it runs when it runs, so a command loads
# only what it needs: ``table`` never loads algebra, identities or
# localization, and ``verify-localization`` never loads identities.


class SuiteOutcome:
    """A suite's passing checks, its first failing report and its notes."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failure = None  # the first failing IdentityReport
        self.notes: list[str] = []


def _run(name: str, reports) -> SuiteOutcome:
    """Count the passing checks up to the first failure, returned or raised."""
    outcome = SuiteOutcome(name)
    try:
        for report in reports:
            if not report.passed:
                outcome.failure = report
                break
            outcome.checks += 1
    except VerificationError as exc:
        outcome.failure = exc.report
    return outcome


def _identity_checks(max_g: int):
    from . import identities
    from .algebra import DensePolynomial
    # documented boundary cases: the vanishing ranges are sharp
    yield IdentityReport(
        "alternating-power-sum boundary", (("m", 1), ("p", 1)),
        identities.alternating_power_sum(1, 1), -1)
    yield IdentityReport(
        "P(t) boundary", (("g", 1),),
        identities.P_poly(1), DensePolynomial([0, 1]))

    for m in range(1, min(2 * max_g, 60) + 1):  # m = 0 has no p < m
        row = identities.alternating_power_sums(m, m - 1)
        for p in range(m):
            yield IdentityReport(
                "alternating-power-sum vanishing", (("m", m), ("p", p)),
                row[p], 0)

    # fixed seed, so the emitted report is deterministic; the draws are
    # Fraction(rng.randint(-99, 99), rng.randint(1, 20)) in order (a test
    # pins them), read from the 199 x 20 rationals built once
    rng = random.Random(20220408)
    rationals = [[Fraction(a, b) for b in range(1, 21)]
                 for a in range(-99, 100)]
    for n in range(1, min(max_g, 10) + 1):
        for bound in (2 * n - 1, 2 * n):
            if bound == 2 * n - 1 and n < 2:
                continue  # sharp boundary: the 2n-1 variant needs n >= 2
            draws = _seeded_draws(rng.getrandbits, rationals, n, 100)
            for total in identities.product_vanishing_sums(draws, bound):
                yield IdentityReport(
                    "product vanishing", (("n", n), ("bound", bound)),
                    total, 0)

    zero = DensePolynomial()
    for g in range(2, max_g + 1):
        yield IdentityReport(
            "P(t) vanishing", (("g", g),), identities.P_poly(g), zero)
        yield identities.eqn_check(g)
    for g in range(2, min(max_g, 20) + 1):
        yield IdentityReport(
            "hat-transform roots", (("g", g), ("points", f"1..{g + 1}")),
            identities.hat_root_values(g), [Fraction(0)] * (g + 1))
    for g in range(1, max_g + 1):
        yield IdentityReport(
            "Q(t) vanishing", (("g", g),), identities.Q_poly(g), zero)


def _seeded_draws(getrandbits, rationals, n: int, count: int):
    """``count`` draws of n entries rationals[a][b], a < 199 and b < 20.

    Each index is drawn as ``random.randint`` draws one below 199 or 20:
    the bit length of 199 (8) or 20 (5) in bits, drawn again while the
    value is out of range.
    """
    for _ in range(count):
        draw = []
        for _ in range(n):
            a = getrandbits(8)
            while a >= 199:
                a = getrandbits(8)
            b = getrandbits(5)
            while b >= 20:
                b = getrandbits(5)
            draw.append(rationals[a][b])
        yield draw


def run_identity_suite(max_g: int) -> SuiteOutcome:
    """Alternating sums, product vanishing, eqn, P/Q vanishing, hat roots."""
    outcome = _run("identities", _identity_checks(max_g))
    if max_g < 2:
        outcome.notes.append(
            "P(t) vanishing: skipped for g=1 (out of theorem range)")
    return outcome


def run_cross_oracle_suite(max_k: int) -> SuiteOutcome:
    """Closed form against the recursion for every value up to max_k."""
    def checks():  # lazy, so a values.table mismatch raises inside _run
        for key, value in values.table(max_k):
            yield IdentityReport("closed-vs-recursive",
                                 tuple(zip(key._fields, key)), value, value)
    return _run("closed-vs-recursive", checks())


def run_localization_suite(max_k: int) -> SuiteOutcome:
    """The graph sum's D and d families against the closed ones, by key."""
    from . import localization

    def checks():  # lazy, so a stray t-power raises inside _run
        D, d = values.closed_families((max_k - 2) // 2, max_k)
        kinds = (("D", "A", D), ("d", "B", d))  # table's order; D from k = 6
        for k in range(4, max_k + 1, 2):
            for kind, insertion, closed in kinds[1:] if k < 6 else kinds:
                pairs = zip(localization.graph_family(insertion, k), closed[k])
                for i, (computed, expected) in enumerate(pairs):
                    if computed != expected:  # Fractions for the report
                        computed = values._unscale(computed, i)
                        expected = values._unscale(expected, i)
                    yield IdentityReport("graph-vs-closed",
                                         (("kind", kind), ("i", i), ("k", k)),
                                         computed, expected)
    return _run("localization", checks())


# ---------------------------------------------------------------------------
# table emission


def _decimal_string(value: Fraction, digits: int) -> str:
    # round half away from zero on |value|, deterministic (no float)
    scaled = abs(value.numerator) * 10 ** digits
    quotient, remainder = divmod(scaled, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    sign = "-" if value.numerator < 0 else ""
    text = str(quotient).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def _table_records(max_k: int, decimal: Optional[int]):
    records = []
    for key, value in values.table(max_k):
        record = {"kind": key.kind, "i": key.i, "k": key.k,
                  "num": str(value.numerator), "den": str(value.denominator)}
        if decimal is not None:
            record["approx"] = _decimal_string(value, decimal)
        records.append(record)
    return records


def _emit_table(records, fmt: str, decimal: Optional[int]) -> str:
    columns = list(TABLE_COLUMNS) + (["approx"] if decimal is not None else [])
    if fmt == "json":
        import json
        return json.dumps(records, indent=2) + "\n"
    if fmt == "csv":
        import csv
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([record[c] for c in columns])
        return buffer.getvalue()
    # plain text
    header = " ".join(f"{c:>6}" for c in columns)
    lines = [header]
    for record in records:
        lines.append(" ".join(f"{str(record[c]):>6}" for c in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _even_k(text: str) -> int:
    return _int_argument(text, lambda value: value >= 4 and value % 2 == 0,
                         "--max-k must be an even integer >= 4")


def _positive(text: str) -> int:
    return _int_argument(text, lambda value: value >= 1,
                         "expected a positive integer")


def _int_argument(text: str, valid, requirement: str) -> int:
    # argparse names the type function in its message for a ValueError, so
    # a non-integer gets the same ArgumentTypeError as an integer out of range
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhodge",
        description="Exact hyperelliptic Hodge integral tables and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit the cross-checked value table")
    table.add_argument("--max-k", type=_even_k, default=20,
                       help="largest (even) number of twisted points")
    table.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
    table.add_argument("--out", default=None, help="write to this path")
    table.add_argument("--decimal", type=_positive, default=None, metavar="N",
                       help="add an approximate decimal column with N digits")

    verify = sub.add_parser("verify", help="run every verification suite")
    verify.add_argument("--max-k", type=_even_k, default=20)
    verify.add_argument("--max-g", type=_positive, default=50)

    loc = sub.add_parser("verify-localization",
                         help="check the graph sum's values")
    loc.add_argument("--max-k", type=_even_k, default=20)

    ident = sub.add_parser("verify-identities",
                           help="check the combinatorial identities")
    ident.add_argument("--max-g", type=_positive, default=50)

    return parser


def _report_outcomes(outcomes) -> int:
    for outcome in outcomes:
        for note in outcome.notes:
            print(f"{outcome.name}: {note}")
        if outcome.failure is not None:
            print(f"{outcome.name}: FAILED after {outcome.checks} passing checks")
            print(outcome.failure.describe())
            return 1
        print(f"{outcome.name}: {outcome.checks} checks passed")
    print("all suites passed")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)

    try:
        if args.command == "table":
            records = _table_records(args.max_k, args.decimal)
            text = _emit_table(records, args.format, args.decimal)
            if args.out:
                try:
                    with open(args.out, "w", encoding="utf-8",
                              newline="") as fh:
                        fh.write(text)
                except OSError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
            else:
                sys.stdout.write(text)
            return 0

        if args.command == "verify":
            return _report_outcomes(run(bound) for run, bound in (
                (run_identity_suite, args.max_g),
                (run_cross_oracle_suite, args.max_k),
                (run_localization_suite, args.max_k)))
        if args.command == "verify-localization":
            return _report_outcomes([run_localization_suite(args.max_k)])
        if args.command == "verify-identities":
            return _report_outcomes([run_identity_suite(args.max_g)])
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
