"""Shared pytest plumbing: surface the acceptance verdict lines in the
terminal summary, where output capture cannot swallow them, and run a
Python child under an address-space cap."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vilenkin

ACCEPTANCE_LINES: list[str] = []

# The address space of a ``capped_python`` child: ample for numpy and a
# desk-sized grid, far below any grid past the size caps.
CHILD_ADDRESS_SPACE = 1 << 30


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def capped_python():
    """``run(code, *args)``: ``python -c code *args`` in a child process that
    first caps its own address space with ``resource.setrlimit(RLIMIT_AS, ...)``
    at ``CHILD_ADDRESS_SPACE``.  A call that tries to build a grid past the
    size caps then fails there with ``MemoryError`` instead of growing until
    the host runs out of memory.  Returns the ``CompletedProcess``, text mode."""
    src = str(Path(vilenkin.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    prelude = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"

    def run(code: str, *args) -> subprocess.CompletedProcess:
        argv = [sys.executable, "-c", prelude + code, *map(str, args)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    return run
