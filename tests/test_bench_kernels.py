"""The kernel micro-benchmarks still run: tests/bench_kernels.py, which the
suite does not collect, runs each of its cases once, untimed."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_bench_kernels_run():
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, *argv, "tests/bench_kernels.py"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
