import os
import tracemalloc
from pathlib import Path

import pytest

import mlwos


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a ``python -m mlwos`` child process.

    The child runs in a temporary directory, where a relative ``PYTHONPATH``
    such as ``src`` no longer resolves. Prefixing the absolute directory this
    process imported ``mlwos`` from makes the child run the same copy of the
    package, whether it comes from a checkout or an installation.
    """
    root = str(Path(mlwos.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    return env


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` and returns the peak bytes that
    tracemalloc traced during the call."""

    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
