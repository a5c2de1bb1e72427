"""The benchmark's tracer (``bench/spans.py``) replaces library functions by
name.  Installing it here makes a deleted or renamed name fail the test
suite, not only traced benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    path = [str(ROOT / d) for d in ("src", "bench", "tests")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", "import spans; spans.Tracer().install()"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
