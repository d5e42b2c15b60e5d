"""``import repro`` stays light: no scipy on the package import path.

The library's runtime dependency is numpy; scipy is only a test-side
reference (``tests/assignment/test_hungarian.py`` compares against
``scipy.optimize``).  A module-level scipy import anywhere under
``repro`` roughly doubles the import time and resident memory of every
process that imports the package, so a fresh interpreter pins it.
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
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def test_import_repro_loads_no_scipy():
    # Without scipy installed nothing could load it, and the check is moot.
    pytest.importorskip("scipy")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert json.loads(out.stdout) == []
