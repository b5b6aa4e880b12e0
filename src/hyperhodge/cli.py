"""Command-line front end: parse, run the value table or the suites, print.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(an unwritable ``--out`` path, a closed stdout, ``--decimal`` over 4000).
The data stream (table output) is byte-deterministic for a fixed
configuration; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from . import values
from .errors import DomainError, VerificationError

TABLE_COLUMNS = ("kind", "i", "k", "num", "den")
DECIMAL_MAX = 4000  # digits a row's --decimal column may hold


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite runs the checks its module defines, importing it when it runs:
# ``table`` never loads algebra, identities or localization, and
# ``verify-localization`` never loads identities.


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


def run_identity_suite(max_g: int) -> SuiteOutcome:
    """Alternating sums, product vanishing, eqn, P/Q vanishing, hat roots."""
    from . import identities
    outcome = _run("identities", identities.identity_checks(max_g))
    if max_g < 2:
        outcome.notes.append(
            "P(t) vanishing: skipped for g=1 (out of theorem range)")
    return outcome


def run_cross_oracle_suite(max_k: int) -> SuiteOutcome:
    """Closed form against the recursion for every value up to max_k."""
    return _run("closed-vs-recursive", values.recursion_checks(max_k))


def run_localization_suite(max_k: int) -> SuiteOutcome:
    """The graph sum's D and d families against the closed ones, by key."""
    from . import localization
    return _run("localization", localization.graph_checks(max_k))


# ---------------------------------------------------------------------------
# table emission


def _decimal_string(value: Fraction, digits: int) -> str:
    # round half away from zero on |value|, deterministic (no float)
    scaled = abs(value.numerator) * 10 ** digits
    quotient, remainder = divmod(scaled, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    sign = "-" if value.numerator < 0 else ""
    # apart, so that the N digits stay within str's 4,300-digit int limit
    whole, fraction = divmod(quotient, 10 ** digits)
    return f"{sign}{whole}.{fraction:0{digits}}" if digits else f"{sign}{whole}"


def _emit_table(max_k: int, fmt: str, decimal: Optional[int]) -> str:
    columns = TABLE_COLUMNS + (("approx",) if decimal is not None else ())
    rows = []
    for (kind, i, k), value in values.table(max_k):
        row = [kind, i, k, str(value.numerator), str(value.denominator)]
        if decimal is not None:
            row.append(_decimal_string(value, decimal))
        rows.append(row)
    if fmt == "json":  # i and k stay JSON numbers, the rest strings
        import json
        return json.dumps([dict(zip(columns, row)) for row in rows],
                          indent=2) + "\n"
    if fmt == "csv":
        # unquoted: fields are D/d, ints and [-.0-9] strings, never , " or \n
        lines = [",".join(map(str, row)) for row in [columns, *rows]]
    else:  # plain text
        lines = [" ".join(f"{field:>6}" for field in row)
                 for row in [columns, *rows]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _even_k(text: str) -> int:
    return _int_argument(text, lambda value: value >= 4 and value % 2 == 0,
                         "--max-k must be an even integer >= 4")


def _positive(text: str) -> int:
    return _int_argument(text, lambda value: value >= 1,
                         "expected a positive integer")


def _digits(text: str) -> int:
    value = _positive(text)
    if value > DECIMAL_MAX:
        raise argparse.ArgumentTypeError(
            f"--decimal must be at most {DECIMAL_MAX}, got {text}")
    return value


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
    table.add_argument("--decimal", type=_digits, default=None, metavar="N",
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
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed help or a usage error
            status = int(exc.code or 0)
        else:
            status = _command(args)
        sys.stdout.flush()  # a closed stdout raises here at the latest
        return status
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # stdout closed or unwritable
        print(f"error: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit: let that succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _command(args) -> int:
    if args.command == "table":
        text = _emit_table(args.max_k, args.format, args.decimal)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
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
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
