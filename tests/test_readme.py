"""The README's library quick start runs as written."""

import os
import subprocess
import sys

from readme_quickstart import README

ROOT = README.parent


def test_library_quick_start_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "readme_quickstart.py")],
        capture_output=True, text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "True"
