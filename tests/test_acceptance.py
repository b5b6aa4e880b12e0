"""Acceptance suite: every contract criterion, exact, with runtime budgets.

Each test prints one PASS line (visible under ``pytest -s``) and enforces the
runtime budget for its sweep.  All comparisons are exact equality — this
package has no tolerances.
"""

import csv
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import child_env
from hyperhodge import (DensePolynomial, P_poly, Q_poly,
                        alternating_power_sum, auxiliary_integral, closed_D,
                        closed_d, eqn_check, hat_root_values, hat_transform,
                        product_vanishing_sum, recursive_D, recursive_d)
from hyperhodge import cli


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hyperhodge", *args],
                          capture_output=True, text=True, env=child_env())


def _announce(name, elapsed, budget):
    assert elapsed < budget, \
        f"{name} exceeded its runtime budget ({elapsed:.2f}s >= {budget:.0f}s)"
    print(f"PASS: {name} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_base_values():
    start = time.perf_counter()
    assert closed_D(1, 4) == Fraction(1, 4)
    for k in range(4, 41, 2):
        assert closed_D(0, k) == Fraction(1, 2)
        assert closed_d(0, k) == Fraction(1, 2)
    _announce("base values (D(1,4)=1/4, D(0,k)=d(0,k)=1/2 for k<=40)",
              time.perf_counter() - start, 1.0)


def test_main_theorem_cross_oracle():
    start = time.perf_counter()
    checked = 0
    for k in range(4, 41, 2):  # each value queried cold
        for i in range((k - 2) // 2 + 1):
            assert recursive_D(i, k) == closed_D(i, k), (i, k)
            assert recursive_d(i, k) == closed_d(i, k), (i, k)
            checked += 2
    assert checked == 2 * sum(k // 2 for k in range(4, 41, 2))
    _announce(f"closed form == recursion for {checked} values up to k=40",
              time.perf_counter() - start, 10.0)


def test_localization_vanishing():
    start = time.perf_counter()
    checked = 0
    for kind, k_min in (("A", 6), ("B", 4)):
        for k in range(k_min, 21, 2):
            for i in range((k - 2) // 2 + 1):
                total = auxiliary_integral(kind, k, i)
                assert total.is_zero(), (kind, k, i, total)
                checked += 1
    _announce(f"localization graph sums vanish ({checked} integrals, k<=20)",
              time.perf_counter() - start, 30.0)


def test_identity_suite():
    start = time.perf_counter()
    for m in range(61):
        for p in range(m):
            assert alternating_power_sum(m, p) == 0, (m, p)

    rng = random.Random(11)
    for n in range(1, 11):
        for _ in range(100):
            draw = [Fraction(rng.randint(-999, 999), rng.randint(1, 50))
                    for _ in range(n)]
            assert product_vanishing_sum(draw, 2 * n) == 0
            if n >= 2:
                assert product_vanishing_sum(draw, 2 * n - 1) == 0

    for g in range(2, 51):
        assert P_poly(g).is_zero(), g
        assert eqn_check(g).passed, g
    for g in range(2, 21):
        roots = hat_root_values(g)
        assert roots == [Fraction(0)] * (g + 1), g
        hat = hat_transform(P_poly(g), g)
        assert all(sum(c * x ** n for n, c in enumerate(hat.coefficients))
                   == 0 for x in range(1, g + 2))
    for g in range(1, 51):
        assert Q_poly(g).is_zero(), g
    _announce("identity suite (power sums m<=60, product vanishing n<=10, "
              "P/Q/eqn g<=50, hat roots g<=20)",
              time.perf_counter() - start, 30.0)


def test_documented_boundary_cases():
    start = time.perf_counter()
    assert alternating_power_sum(1, 1) == -1
    assert P_poly(1) == DensePolynomial([0, 1])
    _announce("boundary cases (sum(1,1)=-1, P(1)=t)",
              time.perf_counter() - start, 1.0)


def test_cli_contract(inject_base_value):
    start = time.perf_counter()

    # `verify` with defaults exits 0
    result = _run_cli("verify")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all suites passed" in result.stdout

    # fault-injected base value exits 1
    inject_base_value(("D", 1, 4), Fraction(1, 3))
    assert cli.main(["verify", "--max-k", "8", "--max-g", "2"]) == 1

    # odd --max-k exits 2
    result = _run_cli("table", "--max-k", "7")
    assert result.returncode == 2

    # CSV and JSON carry the same values
    csv_run = _run_cli("table", "--max-k", "10", "--format", "csv")
    json_run = _run_cli("table", "--max-k", "10", "--format", "json")
    assert csv_run.returncode == 0 and json_run.returncode == 0
    csv_rows = {(r["kind"], int(r["i"]), int(r["k"]),
                 Fraction(int(r["num"]), int(r["den"])))
                for r in csv.DictReader(io.StringIO(csv_run.stdout))}
    json_rows = {(r["kind"], r["i"], r["k"],
                  Fraction(int(r["num"]), int(r["den"])))
                 for r in json.loads(json_run.stdout)}
    assert csv_rows == json_rows

    _announce("CLI contract (verify=0, fault=1, odd bound=2, csv==json)",
              time.perf_counter() - start, 60.0)
