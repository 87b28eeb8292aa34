"""Each demo runs in a fresh interpreter, exits 0 and prints the bytes it
printed when its output was recorded (the sha256 prefix of stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RECORDED = {
    "01_spectra_basics.py": "8d9cb79e1fb6c2d6",
    "02_topology_tour.py": "f633bc66861f5969",
    "03_natural_maps.py": "84d51f68f200b1e3",
    "04_check_catalog.py": "e6555212f6418c9f",
}


@pytest.mark.parametrize("demo", sorted(RECORDED))
def test_demo_output_is_recorded(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, cwd=ROOT, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == RECORDED[demo]
