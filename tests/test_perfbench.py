"""The benchmark's self-test passes against the package in this tree.

``perfbench/`` reads private names of the package (``cli._build_parser``,
``cli._run_task``, the checker's imports from ``recurrence``), so a change
to the package can break the benchmark without failing any other test.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the self-test reads the package from src/ under its working directory
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, (done.stdout + done.stderr)[-2000:]
    assert done.stdout.splitlines()[-1] == "selftest passed"
