"""Every behaviour pin holds: ``python benchmarks/pins.py`` exits 0.

The command checks the digest of every pinned run (the e2ebench
deployments and the smoke layouts at seeds 1 and 2, the smoke runs on
the paper's two fields and under lossy churn) and the smoke report byte
for byte.  It runs once, in its own interpreter, as it is run by hand,
so the e2ebench workload module it imports stays out of this process.
Each line of ``benchmarks/pins/runs.txt`` then gets a test of its own,
which fails when the command prints that run as moved, and the report
gets one that fails on its diff.  A change meant to move behaviour
re-pins with ``--update``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PINNED_RUNS = [
    line.rsplit(" ", 1)[0]
    for line in (ROOT / "benchmarks" / "pins" / "runs.txt").read_text().splitlines()
]


@pytest.fixture(scope="module")
def check():
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pins.py")],
        capture_output=True,
        text=True,
    )


def test_every_pin_holds(check):
    assert check.returncode == 0, check.stdout + check.stderr


@pytest.mark.parametrize(
    "run", PINNED_RUNS, ids=[run.replace(" ", "-") for run in PINNED_RUNS]
)
def test_run_matches_its_pin(check, run):
    # The check prints each moved run as "<run>: <old> → <new>".
    moved = [line for line in check.stdout.splitlines()
             if line.startswith(f"{run}: ")]
    assert " runs identical, " in check.stdout, check.stdout + check.stderr
    assert not moved, moved[0]


def test_smoke_report_matches_its_pin(check):
    assert "smoke report identical" in check.stdout, check.stdout + check.stderr
