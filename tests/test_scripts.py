"""The corpus generator script starts and parses its options."""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_generate_srg_data_help():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "generate_srg_data.py"), "--help"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--search-time" in proc.stdout
