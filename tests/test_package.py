"""The package's lazy public API and the modules each command loads.

``import hyperhodge`` loads no submodule; a public name or a submodule is
imported when first used.  The loaded modules are checked in fresh
interpreters, since this process has imported the whole package already.
"""

import doctest
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperhodge

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# prints, as its last line, the package modules and dataclasses loaded
REPORT = ("print(json.dumps(sorted(name for name in sys.modules if name == "
          "'dataclasses' or name.startswith('hyperhodge.'))))")


def run_child(code):
    """Run ``code`` after ``import json, sys, hyperhodge`` in a fresh child."""
    # the child imports the package from this checkout, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys, hyperhodge\n{code}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code):
    return set(json.loads(run_child(f"{code}\n{REPORT}").splitlines()[-1]))


VALUE_MODULES = {"hyperhodge.errors", "hyperhodge.kernels",
                 "hyperhodge.values"}


@pytest.mark.parametrize("code, expected", [
    pytest.param("", set(), id="bare-import"),
    pytest.param("from hyperhodge import cli\n"
                 "assert cli.main(['table', '--max-k', '8', '--format', "
                 "'csv']) == 0",
                 VALUE_MODULES | {"hyperhodge.cli"}, id="table"),
    pytest.param("from hyperhodge import values\n"
                 "assert values.recursive_D(2, 8) == values.closed_D(2, 8)",
                 VALUE_MODULES, id="point-query"),
])
def test_a_command_loads_only_the_modules_it_runs(code, expected):
    assert loaded_after(code) == expected


def test_table_loads_no_csv_module():
    # the rows are joined as they are: no field ever needs CSV quoting
    out = run_child("from hyperhodge import cli\n"
                    "assert cli.main(['table', '--max-k', '8', '--format', "
                    "'csv']) == 0\n"
                    "print('csv' in sys.modules)")
    assert out.splitlines()[0] == "kind,i,k,num,den"
    assert out.splitlines()[-1] == "False"


def test_localization_sweep_loads_neither_symmetric_nor_dataclasses():
    loaded = loaded_after("from hyperhodge import cli\n"
                          "assert cli.main(['verify-localization', "
                          "'--max-k', '8']) == 0")
    assert "hyperhodge.localization" in loaded
    assert not loaded & {"hyperhodge.symmetric", "hyperhodge.identities",
                         "dataclasses"}


def test_submodules_resolve_after_a_bare_import():
    out = run_child("print(hyperhodge.values.base_value.__module__, "
                    "hyperhodge.localization.__name__, "
                    "hyperhodge.identities.eqn_check.__name__)")
    assert out == "hyperhodge.values hyperhodge.localization eqn_check\n"


def test_every_public_name_resolves():
    namespace = {}
    exec("from hyperhodge import *", namespace)
    for name in hyperhodge.__all__:
        assert getattr(hyperhodge, name) is namespace[name], name
    assert set(namespace) - {"__builtins__"} == set(hyperhodge.__all__)
    assert set(hyperhodge.__all__) <= set(dir(hyperhodge))
    assert {"__version__", "KERNEL_BACKEND"} <= set(dir(hyperhodge))
    assert hyperhodge.closed_D is hyperhodge.values.closed_D


def test_identity_report_is_one_record_under_both_names():
    # it lives in errors beside VerificationError, which carries one
    report = hyperhodge.errors.IdentityReport
    assert hyperhodge.IdentityReport is report
    assert hyperhodge.identities.IdentityReport is report


def test_public_name_follows_a_replaced_module_attribute(monkeypatch):
    # the package reads the name off its submodule on every lookup
    replacement = lambda key: None  # noqa: E731
    monkeypatch.setattr(hyperhodge.values, "base_value", replacement)
    assert hyperhodge.base_value is replacement


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperhodge.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from hyperhodge import no_such_name", {})


def test_readme_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(>>> from hyperhodge import .*?)```",
                      readme, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", None, 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 6)
