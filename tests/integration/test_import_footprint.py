"""``import repro`` stays light: no scipy, no concurrency machinery.

The library's runtime dependency is numpy; scipy is only a test-side
reference (``tests/assignment/test_hungarian.py`` compares against
``scipy.optimize``).  A module-level scipy import anywhere under
``repro`` roughly doubles the import time and resident memory of every
process that imports the package, so a fresh interpreter pins it.

Likewise the sweep service (``asyncio``, ``concurrent.futures``) and any
process pool are loaded only when a sweep actually runs:
``SweepRunner.run`` imports them on first use, so a single deployment never
pays for them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = (
    "import json, sys\n"
    "import repro\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


@pytest.fixture(scope="module")
def loaded_modules():
    """Every module a fresh interpreter holds after ``import repro``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(out.stdout)


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_repro_loads_no_scipy(loaded_modules):
    # Without scipy installed nothing could load it, and the check is moot.
    pytest.importorskip("scipy")
    assert _under(loaded_modules, "scipy") == []


@pytest.mark.parametrize(
    "package", ["asyncio", "concurrent.futures", "multiprocessing"]
)
def test_import_repro_loads_no_sweep_machinery(loaded_modules, package):
    assert _under(loaded_modules, package) == []
