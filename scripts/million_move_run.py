"""Run ``extparab run --d 20`` (1,048,576 vertices, 1,048,575 moves) and check its output.

    python scripts/million_move_run.py

The walk runs in a child process on the checkout's ``src/``, so
``resource.getrusage(RUSAGE_CHILDREN)`` reads its CPU time and peak RSS
alone.  The script then reads both output files once, streaming: the
trace's sha256 and size, and the plot CSV's t column, which must list
t = 0..M-1 in order, one row each.  It prints one JSON line with the
measurements and exits 1 when the run fails, the sha256 differs from
``EXPECTED_SHA256``, a plot row is out of order or missing, or peak RSS is
over ``RSS_LIMIT_MIB``.  The output files (1.86 GB of trace) are written to
a temporary directory that is always removed, with whatever the child left
in it; to keep them, run ``extparab run --d 20`` directly.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

D, M = 20, 4**10  # the n = 4d tower has M = (n/d)^(d/2) vertices
EXPECTED_SHA256 = "bac0665d4abd60e953924d7007d7938096f420d74b5cbfe604a5dfb86d27305f"
RSS_LIMIT_MIB = 25.0
SRC = Path(__file__).resolve().parents[1] / "src"


def trace_digest(path):
    """(sha256 hex digest, size in bytes) of a file, read in 1 MiB blocks."""
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as stream:
        while block := stream.read(1 << 20):
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


def plot_problems(path):
    """What is wrong with the plot CSV's header and t column, read line by line; [] if nothing."""
    with open(path) as stream:
        if stream.readline() != "t,phi,phi_prime,f\n":
            return ["unexpected header"]
        expected = 0
        for line in stream:
            t = line.partition(",")[0]
            if t != str(expected):
                return [f"row {expected + 1} has t = {t!r}, expected {expected}"]
            expected += 1
    return [] if expected == M else [f"{expected} rows, expected {M}"]


def main():
    with tempfile.TemporaryDirectory(prefix="million-move-") as out:
        report, problems = run_and_check(os.path.join(out, "r"))
    report["problems"] = problems
    print(json.dumps(report))
    return 1 if problems else 0


def run_and_check(prefix):
    """Run the walk to ``prefix``.trace.json / .plot.csv; (report, problems)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "extparab.cli", "run", "--d", str(D), "--out", prefix]
    child = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "command": f"extparab run --d {D}",
        "exit": child.returncode,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 2),  # ru_maxrss is in KiB on Linux
    }
    problems = [] if child.returncode == 0 else [f"run exited {child.returncode}"]
    if not problems:
        report["trace_sha256"], report["trace_bytes"] = trace_digest(prefix + ".trace.json")
        if report["trace_sha256"] != EXPECTED_SHA256:
            problems.append("trace sha256 differs from the expected digest")
        plot = plot_problems(prefix + ".plot.csv")
        report["plot_rows_in_order"] = not plot
        problems += plot
    if report["peak_rss_mib"] > RSS_LIMIT_MIB:
        problems.append(f"peak RSS {report['peak_rss_mib']} MiB is over {RSS_LIMIT_MIB} MiB")
    return report, problems


if __name__ == "__main__":
    sys.exit(main())
