"""The benchmark's self-test, run the way the benchmark documents it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    """The bench wraps wulffstab functions by name, so a rename in the
    package breaks its bindings; its self-test notices."""
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
