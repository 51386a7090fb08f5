"""Run a command as a child process and report its CPU time and peak RSS.

    python scripts/peak_rss.py [--max-mib N] -- COMMAND [ARG ...]

Prints one JSON line with the child's exit code, CPU seconds (user + system)
and peak resident set in MiB, read with ``resource.getrusage(RUSAGE_CHILDREN)``
(``ru_maxrss`` is in KiB on Linux).  Exits 1 if the child fails or its peak
RSS is above ``--max-mib``.  Stdlib only.
"""

import argparse
import json
import resource
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run a command; report its CPU and peak RSS.")
    parser.add_argument("--max-mib", type=float, help="fail if peak RSS is above this many MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the command, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    code = subprocess.run(command).returncode
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu, mib = round(usage.ru_utime + usage.ru_stime, 2), round(usage.ru_maxrss / 1024, 1)
    print(json.dumps({"command": command, "exit": code, "cpu_s": cpu, "peak_rss_mib": mib}))
    over = args.max_mib is not None and mib > args.max_mib
    if over:
        print(f"peak RSS {mib} MiB is over {args.max_mib} MiB", file=sys.stderr)
    return 1 if code or over else 0


if __name__ == "__main__":
    sys.exit(main())
