"""scripts/peak_rss.py: the child's exit code, CPU time and peak RSS, and its RSS gate.

The script runs in its own process, so ``RUSAGE_CHILDREN`` there sees only
the one child it starts.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
HOLD_32_MIB = "block = b'x' * (32 << 20)"  # written, so resident


def peak_rss(*args):
    """(exit code, the JSON report) of the script run on ``args``."""
    done = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def test_reports_the_childs_peak_rss_and_passes_under_the_limit():
    code, report = peak_rss("--max-mib", "1000", "--", sys.executable, "-c", HOLD_32_MIB)
    assert code == 0 and report["exit"] == 0
    assert report["peak_rss_mib"] >= 32 and report["cpu_s"] >= 0


def test_fails_when_the_peak_is_over_the_limit():
    code, report = peak_rss("--max-mib", "16", "--", sys.executable, "-c", HOLD_32_MIB)
    assert code == 1 and report["exit"] == 0 and report["peak_rss_mib"] > 16


def test_fails_when_the_child_fails():
    code, report = peak_rss("--", sys.executable, "-c", "raise SystemExit(3)")
    assert code == 1 and report["exit"] == 3
