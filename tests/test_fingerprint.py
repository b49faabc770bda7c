"""tools/fingerprint.py runs against the current API, and agrees with itself.

A change meant to leave every bit as it was is shown so by comparing the
fingerprints of the parent's tree and the changed one. That proof needs
the tool to run on today's code and two runs of one tree to print the
same hashes, thread and process counts included.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_of_the_tree_against_itself_differs_nowhere():
    # each side runs in a fresh interpreter of its own
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), src, src],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    last = run.stdout.strip().splitlines()[-1]
    m = re.fullmatch(r"0 of (\d+) lines differ", last)
    assert m and int(m.group(1)) >= 66, run.stdout
