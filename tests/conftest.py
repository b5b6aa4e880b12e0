"""Shared fixtures."""

import pytest

from hyperhodge import values


@pytest.fixture
def inject_base_value(monkeypatch):
    """inject(key, value): values.base_value returns ``value`` at ``key``.

    ``key`` is a plain ``(kind, i, k)`` tuple, as the recursion offers
    every coefficient.  The recursion looks ``base_value`` up as a module
    global on every call, so the replacement reaches every route that reads
    base values; the genuine function answers every other key.
    """
    def inject(key, value):
        genuine = values.base_value
        monkeypatch.setattr(values, "base_value",
                            lambda k: value if k == key else genuine(k))
    return inject
