"""Exception types and the one failure record shared across the package."""

from __future__ import annotations

from collections import namedtuple


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class IdentityReport(namedtuple("IdentityReport",
                                "name parameters computed expected")):
    """Outcome of one check; passes iff computed == expected exactly.

    ``parameters`` is a tuple of (name, value) pairs; ``describe`` prints a
    tuple or list, parameter or value, element by element with ``str``.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.computed == self.expected

    def describe(self) -> str:
        params = ", ".join(f"{k}={_text(v)}" for k, v in self.parameters)
        status = "pass" if self.passed else "FAIL"
        return (f"identity {self.name} [{params}]: {status}\n"
                f"  computed: {_text(self.computed)}\n"
                f"  expected: {_text(self.expected)}")


def _text(value) -> str:
    if isinstance(value, (tuple, list)):  # [1/3, 0], not [Fraction(1, 3), ..]
        text = ", ".join(map(str, value))
        return f"[{text}]" if isinstance(value, list) else f"({text})"
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
