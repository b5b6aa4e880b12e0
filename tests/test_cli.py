"""Command-line contract: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperhodge import cli, identities, values
from hyperhodge.algebra import DensePolynomial
from hyperhodge.errors import IdentityReport, VerificationError
from hyperhodge.values import HodgeValueKey


def run_cli(*args):
    """Invoke the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buffer
    try:
        code = cli.main(list(args))
    finally:
        sys.stdout = stdout
    return code, buffer.getvalue()


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_subprocess(*args):
    # the child imports the package from this checkout, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hyperhodge", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# ---------------------------------------------------------------------------
# table emission


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "263a7c2e4b325ebb1bf647bc63e4f8c769da15fbe6a3ea0f4d24ec2327326c1a"),
    ("json", "c1f48240130da3f95ed9abeedd41c76abc2a530d83349436ee8115aee688a03d"),
])
def test_table_bytes_are_pinned(fmt, digest):
    code, out = run_cli("table", "--max-k", "40", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_csv_contains_pinned_row():
    code, out = run_cli("table", "--max-k", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,i,k,num,den"
    assert "D,1,4,1,4" in lines
    assert len(lines) == 1 + 4


def test_table_json_contains_derived_value():
    code, out = run_cli("table", "--max-k", "6", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert {"kind": "D", "i": 1, "k": 6, "num": "1", "den": "1"} in records


def test_csv_and_json_agree_as_multisets():
    _, csv_out = run_cli("table", "--max-k", "12", "--format", "csv")
    _, json_out = run_cli("table", "--max-k", "12", "--format", "json")
    csv_rows = {(r["kind"], int(r["i"]), int(r["k"]), r["num"], r["den"])
                for r in csv.DictReader(io.StringIO(csv_out))}
    json_rows = {(r["kind"], r["i"], r["k"], r["num"], r["den"])
                 for r in json.loads(json_out)}
    assert csv_rows == json_rows
    assert len(csv_rows) == sum(k for k in range(4, 13, 2))


def test_table_output_is_byte_deterministic():
    first = run_cli("table", "--max-k", "10", "--format", "json")
    second = run_cli("table", "--max-k", "10", "--format", "json")
    assert first == second


def test_table_decimal_column():
    code, out = run_cli("table", "--max-k", "4", "--format", "csv",
                        "--decimal", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_key = {(r["kind"], r["i"]): r["approx"] for r in rows}
    assert by_key[("D", "1")] == "0.250"
    assert by_key[("d", "0")] == "0.500"


def test_table_out_file(tmp_path):
    target = tmp_path / "values.csv"
    code, out = run_cli("table", "--max-k", "4", "--format", "csv",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_bytes()
    assert content.startswith(b"kind,i,k,num,den\n")
    assert b"\r" not in content  # LF line endings


def test_table_out_to_unwritable_path_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "values.csv"
    done = run_subprocess("table", "--max-k", "4", "--out", str(target))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not target.exists()


def test_table_csv_uses_lf_line_endings():
    _, out = run_cli("table", "--max-k", "4", "--format", "csv")
    assert "\r" not in out


# ---------------------------------------------------------------------------
# exit codes


def code_of(*args):
    code, _ = run_cli(*args)
    return code


def test_odd_max_k_is_usage_error():
    result = run_subprocess("table", "--max-k", "5")
    assert result.returncode == 2
    assert code_of("table", "--max-k", "5") == 2


@pytest.mark.parametrize("args, message", [
    (("table", "--max-k", "1e3"),
     "argument --max-k: --max-k must be an even integer >= 4, got 1e3"),
    (("verify", "--max-g", "abc"),
     "argument --max-g: expected a positive integer, got abc"),
    (("table", "--decimal", "x"),
     "argument --decimal: expected a positive integer, got x"),
], ids=["max-k", "max-g", "decimal"])
def test_non_integer_value_is_usage_error_naming_the_option(
        args, message, capsys):
    assert code_of(*args) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(message), err
    assert "invalid" not in err and "_even_k" not in err \
        and "_positive" not in err


def test_unknown_flag_is_usage_error():
    assert code_of("table", "--bogus") == 2
    assert code_of("verify", "--max-g", "0") == 2
    assert code_of("nonsense") == 2


def test_verify_quick_bounds_pass():
    code, out = run_cli("verify", "--max-k", "8", "--max-g", "6")
    assert code == 0
    assert "all suites passed" in out


def test_verify_subcommands_pass():
    code, out = run_cli("verify-localization", "--max-k", "8")
    assert code == 0
    code, out = run_cli("verify-identities", "--max-g", "5")
    assert code == 0


def test_verify_small_g_reports_skip():
    code, out = run_cli("verify", "--max-k", "4", "--max-g", "1")
    assert code == 0
    assert "skipped for g=1 (out of theorem range)" in out


def test_verify_prints_pinned_suite_counts():
    code, out = run_cli("verify", "--max-k", "8", "--max-g", "10")
    assert code == 0
    assert out == ("identities: 2149 checks passed\n"
                   "closed-vs-recursive: 18 checks passed\n"
                   "localization: 16 checks passed\n"
                   "all suites passed\n")


def test_verify_g20_output_is_pinned():
    # the benchmark's verify_g20 command, as a fresh process
    done = run_subprocess("verify", "--max-g", "20")
    assert done.returncode == 0
    assert done.stdout == ("identities: 2799 checks passed\n"
                           "closed-vs-recursive: 108 checks passed\n"
                           "localization: 106 checks passed\n"
                           "all suites passed\n")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "f585bb8fdae6a2c1ec858870576e10233d380fd6d1195f28db482614b54c6cc7")


def test_default_verify_output_is_pinned():
    done = run_subprocess("verify")
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "3d28216ae13d65ab32c738014773bec9d161f2051a9707eb5388cd6cfdb5d6db")


def test_table_bulk_csv_is_pinned():
    # the benchmark's table_bulk command
    code, out = run_cli("table", "--max-k", "60", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1f3125d75bd0def0ffc2bc3928e2a229b0d273ab1b668be539017e252d6b613")


def test_verify_runs_the_localization_suite_to_max_k():
    code, out = run_cli("verify", "--max-k", "24", "--max-g", "3")
    assert code == 0
    code, alone = run_cli("verify-localization", "--max-k", "24")
    assert code == 0
    line = alone.splitlines()[0]
    assert line == "localization: 152 checks passed"
    assert line in out.splitlines()


def test_localization_sweep_output_is_pinned():
    # the benchmark's localization_sweep command, as a fresh process
    done = run_subprocess("verify-localization", "--max-k", "50")
    assert done.returncode == 0
    assert done.stdout == ("localization: 646 checks passed\n"
                           "all suites passed\n")


def test_localization_sweep_to_k120_is_pinned():
    # many mirror pairs, and multiplicities C(117, j) far above 2**53
    done = run_subprocess("verify-localization", "--max-k", "120")
    assert done.returncode == 0
    assert done.stdout == ("localization: 3656 checks passed\n"
                           "all suites passed\n")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "f6aa8a54605e35c0fe3b7421c20c942bfd4d137f713752ed896c84176013b8ca")


def test_product_vanishing_draws_follow_max_g():
    code, out = run_cli("verify-identities", "--max-g", "1")
    assert code == 0
    assert "identities: 106 checks passed\n" in out


def test_seeded_draws_are_the_former_randint_draws(monkeypatch):
    # The sampler must hand out exactly the draws randint gave, in order,
    # so a failure report names the same draw it always did.
    real_sums = identities.product_vanishing_sums
    batches = []

    def recorded_sums(draws, bound):
        batch = []
        batches.append((bound, batch))

        def recorded():
            for draw in draws:
                batch.append(list(draw))
                yield draw
        return real_sums(recorded(), bound)

    monkeypatch.setattr(identities, "product_vanishing_sums", recorded_sums)
    code, out = run_cli("verify-identities", "--max-g", "10")
    assert code == 0
    rng = random.Random(20220408)
    expected = [
        (bound, [[Fraction(rng.randint(-99, 99), rng.randint(1, 20))
                  for _ in range(n)] for _ in range(100)])
        for n in range(1, 11) for bound in (2 * n - 1, 2 * n) if bound > 1]
    assert sum(len(draw) for _, batch in expected for draw in batch) == 10900
    # the 19 seeded batches come first, then one hat-root batch per g = 2..10
    assert batches[:19] == expected
    assert [len(batch) for _, batch in batches[19:]] == list(range(3, 12))


def test_failing_report_ends_verify_before_later_suites(monkeypatch):
    real_q = identities.Q_poly
    t = DensePolynomial([0, 1])
    monkeypatch.setattr(identities, "Q_poly",
                        lambda g: t if g == 3 else real_q(g))

    def table_must_not_run(max_k, memo=None):
        raise AssertionError("values.table ran after a failed suite")

    monkeypatch.setattr(values, "table", table_must_not_run)
    code, out = run_cli("verify", "--max-k", "8", "--max-g", "3")
    assert code == 1
    failure = IdentityReport("Q(t) vanishing", (("g", 3),), t,
                             DensePolynomial())
    assert out == ("identities: FAILED after 531 passing checks\n"
                   + failure.describe() + "\n")


def test_raised_verification_error_is_the_suite_failure(monkeypatch, capsys):
    real_sums = identities.product_vanishing_sums

    def disagreeing_sums(draws, bound):
        for draw in draws:
            if len(draw) == 2:
                raise VerificationError(IdentityReport(
                    "product/elementary-symmetric routes",
                    (("values", (Fraction(1, 3), Fraction(-2))),
                     ("bound", bound)), Fraction(-1, 2), Fraction(5, 7)))
            yield from real_sums([draw], bound)

    monkeypatch.setattr(identities, "product_vanishing_sums", disagreeing_sums)
    code, out = run_cli("verify", "--max-k", "8", "--max-g", "3")
    assert code == 1
    # the raised report is the failure, printed once as it came
    assert out.splitlines() == [
        "identities: FAILED after 123 passing checks",
        "identity product/elementary-symmetric routes"
        " [values=(1/3, -2), bound=3]: FAIL",
        "  computed: -1/2",
        "  expected: 5/7",
    ]
    assert capsys.readouterr().err == ""


def test_mid_batch_disagreement_follows_the_earlier_draws(monkeypatch):
    # The (n=2, bound=3) batch's alternating-power-sum row gains 1 at p = 0
    # when its 50th draw is read, so that draw's e_j route picks up e_2 of
    # the draw.  The batch reads its draws one at a time, so the 49 draws
    # before it are checked, and counted, with the genuine row.
    real_sums = identities.product_vanishing_sums
    real_row = identities.alternating_power_sums
    rows, faulty = [], []

    def held_row(m, p_max):
        rows.append(real_row(m, p_max))
        return rows[-1]

    def watched_sums(draws, bound):
        def watched():
            for index, draw in enumerate(draws, 1):
                if bound == 3 and index == 50:
                    rows[-1][0] += 1
                    faulty.extend(draw)
                yield draw
        return real_sums(watched(), bound)

    monkeypatch.setattr(identities, "alternating_power_sums", held_row)
    monkeypatch.setattr(identities, "product_vanishing_sums", watched_sums)
    code, out = run_cli("verify", "--max-k", "8", "--max-g", "3")
    assert code == 1
    assert out.splitlines() == [
        "identities: FAILED after 172 passing checks",  # 23 + 100 + 49
        "identity product/elementary-symmetric routes"
        f" [values=({faulty[0]}, {faulty[1]}), bound=3]: FAIL",
        f"  computed: {faulty[0] * faulty[1]}",
        "  expected: 0",
    ]


def test_fault_injected_base_value_fails_verify(inject_base_value):
    inject_base_value(HodgeValueKey("D", 1, 4), Fraction(1, 5))
    code, out = run_cli("verify", "--max-k", "8", "--max-g", "3")
    assert code == 1
    assert "D" in out and "1/5" in out and "1/4" in out


def test_fault_injected_base_value_fails_table(inject_base_value, capsys):
    inject_base_value(HodgeValueKey("d", 1, 6), Fraction(7, 2))
    code, _ = run_cli("table", "--max-k", "8", "--format", "csv")
    assert code == 1
    assert capsys.readouterr().err == (
        "verification failure: identity closed-vs-recursive"
        " [kind=d, i=1, k=6]: FAIL\n"
        "  computed: 7/2\n"
        "  expected: 3/2\n")


def test_help_exits_zero():
    assert code_of("--help") == 0
    assert code_of("table", "--help") == 0
