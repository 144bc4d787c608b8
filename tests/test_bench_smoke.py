import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_runs_every_workload_tiny():
    """bench/smoke.py: every workload at its tiny size, metric names and output checks."""
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke passed" in done.stdout
