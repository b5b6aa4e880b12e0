"""Shared fixtures and the environment of child interpreters."""

import os
from pathlib import Path

import pytest

from hyperhodge import values

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict:
    """This process's environment for a child that runs this checkout.

    The child imports the package from this checkout, installed or not,
    and gets no ``PYTHONUNBUFFERED``: its stdout is buffered, as a user's
    is, whatever the host exports (unbuffered, a closed stdout fails at the
    first write, not at the flush).
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


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
