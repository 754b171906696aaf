import ctypes
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # The tests that start ``python -m smalescan.cli`` in a subprocess need
    # the package importable there too; ``pythonpath`` in pyproject.toml
    # only reaches the test process itself.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )


class FakeLibc:
    """Stands in for the C library: records every ``mallopt`` and
    ``malloc_trim`` call, and every time it is opened."""

    def __init__(self):
        self.calls = []
        self.opened = 0

        def mallopt(param, value):
            self.calls.append(("mallopt", param, value))
            return 1

        def malloc_trim(pad):
            self.calls.append(("malloc_trim", pad))
            return 1

        # Plain functions, so ``argtypes`` and ``restype`` can be set.
        self.mallopt = mallopt
        self.malloc_trim = malloc_trim

    def open(self, name):
        self.opened += 1
        return self


@pytest.fixture()
def fake_libc(monkeypatch):
    """A FakeLibc that ``ctypes.CDLL`` returns, on a C library that
    reports itself as glibc."""
    fake = FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", fake.open)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    return fake
