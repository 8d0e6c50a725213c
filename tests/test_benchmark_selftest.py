"""The benchmark's self-test, run with the test suite.

``perfbench/selftest.py`` runs short traced prefixes of every workload twice
and checks that their counters and result digests repeat, that each workload
exercises its layers, and that the correctness gate rejects a tampered
certificate.  It writes no file.  Running it here makes a library change that
breaks the benchmark fail the suite, not only the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.rstrip().endswith("selftest passed")
