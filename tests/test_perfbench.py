import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    # fails when a layer the benchmark tracer wraps is renamed or removed
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: PASS" in proc.stdout
