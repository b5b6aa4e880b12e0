"""Exception types and the one failure record shared across the package."""

from __future__ import annotations

from collections import namedtuple


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class IdentityReport(namedtuple("IdentityReport",
                                "name parameters computed expected")):
    """Outcome of one check; passes iff computed == expected exactly.

    ``parameters`` is a tuple of (name, value) pairs; ``describe`` prints a
    tuple value element by element with ``str``, as it prints the values.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.computed == self.expected

    def describe(self) -> str:
        params = ", ".join(f"{k}={_text(v)}" for k, v in self.parameters)
        status = "pass" if self.passed else "FAIL"
        return (f"identity {self.name} [{params}]: {status}\n"
                f"  computed: {self.computed}\n"
                f"  expected: {self.expected}")


def _text(value) -> str:
    if isinstance(value, tuple):  # (1/3, -2), not (Fraction(1, 3), ...)
        return "(" + ", ".join(map(str, value)) + ")"
    return str(value)


class VerificationError(Exception):
    """Two routes that must agree exactly did not.

    ``report`` is the failing check, with its parameters and both exact
    values, so nothing is re-run to report it; its text is the message.
    """

    def __init__(self, report: IdentityReport):
        super().__init__(report)  # a pickled copy is rebuilt from the args
        self.report = report

    def __str__(self) -> str:
        return self.report.describe()
