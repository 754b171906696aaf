import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # The tests that start ``python -m smalescan.cli`` in a subprocess need
    # the package importable there too; ``pythonpath`` in pyproject.toml
    # only reaches the test process itself.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
