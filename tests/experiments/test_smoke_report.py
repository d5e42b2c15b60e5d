"""The smoke-scale report of every experiment, pinned byte for byte.

``smoke_report.txt`` is the output of

    python -m repro.experiments.runner --scale smoke --jobs 2 --trace-every 20

A change that moves any figure number fails here with the diff; a change
that moves numbers on purpose regenerates the file with that command and
says why in CHANGES.md.
"""

import difflib
from pathlib import Path

from repro.experiments.runner import main

PINNED = Path(__file__).with_name("smoke_report.txt")


def test_smoke_report_matches_pinned_copy(capsys):
    assert main(["--scale", "smoke", "--jobs", "2", "--trace-every", "20"]) == 0
    actual = capsys.readouterr().out
    expected = PINNED.read_text()
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=str(PINNED.name),
            tofile="runner output",
        )
    )
    assert actual == expected, "smoke report moved:\n" + diff
