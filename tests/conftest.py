"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import centerseg

ADDRESS_SPACE_CAP = 1 << 30  # bytes


@pytest.fixture
def run_capped():
    """``run_capped(code)`` runs Python ``code`` in a child process whose
    address space is capped at 1 GiB, so an input that asks for a huge
    allocation fails there with a MemoryError rather than exhausting the
    machine. Returns the CompletedProcess, output captured as text."""
    src = str(Path(centerseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))\n"

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", prelude + code], env=env, capture_output=True, text=True, timeout=120
        )

    return run
