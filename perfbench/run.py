"""extparab benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from ``src``.
Ops run one after another in this single process until ``--seconds`` have
passed (at least one op); each op's output is checked exactly, and an op
that raises, exits non-zero or fails its check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
every second op runs traced, and the run reports the per-layer metrics
(medians over the traced ops) with the tracing overhead.  Untraced runs time
ops in reference seconds (see calibrate.py); traced runs in plain CPU
seconds, with no calibration slices inside the spans.  Spans and the full
per-layer table go to ``perfbench_out/trace-<workload>/``.  ``--workload
all`` runs every workload, each in its own process.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
only when every op was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"
WORKLOAD_NAMES = ("walk", "certify", "scan")
SETUP_REPEATS = 9
SETUP_SLICES = 5  # calibration slices after each set-up probe

# End-to-end metrics, reported by every workload with tracing off.  Times
# are process CPU seconds scaled to reference seconds by the calibration
# slices run alongside (calibrate.py): the program is single-threaded and
# CPU-bound, and on a shared virtual machine both its wall clock and its CPU
# time follow the host's load (see NOTES.md).
E2E_UNITS = {"items_per_ref_s": "1/s", "op_ref_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Attempt:
    cpu_s: float
    items: int
    problems: list[str]
    ref_s: float = 0.0  # cpu_s in reference seconds, when a SliceClock ran
    slice_s: float = 0.0  # mean CPU time of the op's calibration slices
    summary: dict | None = None
    counters: dict = field(default_factory=dict)


def attempt(
    op: Callable[[], object],
    check: Callable[[object], tuple[list[str], int]],
    clock=None,
) -> Attempt:
    """Time op(), then check its output; any exception counts as a failed op.

    With a clock, cpu_s leaves out the calibration slices run during the op,
    and ref_s scales it by the slices run during the op and its check and
    one more slice run after them.
    """
    from perfbench import calibrate

    begin = clock.stamp() if clock else None
    cpu0 = time.process_time()
    try:
        out, raised = op(), None
    except Exception as exc:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        out, raised = None, exc
    result = Attempt(time.process_time() - cpu0, 0, [])
    if clock:
        result.cpu_s = calibrate.own_cpu_s(begin, clock.stamp())
    if raised is not None:
        result.problems = [f"op raised {type(raised).__name__}: {raised}"]
    else:
        try:
            problems, items = check(out)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems, items = [f"output check raised {type(exc).__name__}: {exc}"], 0
        result.problems, result.items = problems, 0 if problems else items
    if clock:
        clock.run_slice()
        result.slice_s = calibrate.mean_slice_s(begin, clock.stamp())
        result.ref_s = calibrate.reference_s(result.cpu_s, result.slice_s)
    return result


def closed_loop(workload, ctx, workdir: Path, seconds: float, tracer=None, clock=None) -> list[Attempt]:
    """Ops back to back, each started when the previous op and its check end.

    With a tracer every second op runs traced, so a drift in the machine's
    speed reaches traced and untraced ops alike; there is one of each at least.
    """
    attempts: list[Attempt] = []
    minimum = 1 if tracer is None else 2
    begin = time.perf_counter()
    while len(attempts) < minimum or time.perf_counter() - begin < seconds:
        index = len(attempts)
        traced = tracer is not None and index % 2 == 1

        def op():
            if traced:
                tracer.begin_op(index)
            try:
                return workload.op(ctx, index, workdir)
            finally:
                if traced:
                    tracer.end_op()

        with tracer.installed() if traced else contextlib.nullcontext():
            result = attempt(op, lambda out: workload.check(ctx, out), clock)
        if traced:
            result.summary = tracer.op_summary(index)
            result.counters = dict(tracer.op_counters[index])
            if not result.problems:
                result.problems = workload.identities(result.items, result.summary, result.counters)
        attempts.append(result)
    return attempts


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def throughput(attempts: list[Attempt], timing: str = "cpu_s") -> float:
    """Work items per second of op time, over the correct ops."""
    good = [a for a in attempts if not a.problems]
    spent = sum(getattr(a, timing) for a in good)
    return sum(a.items for a in good) / spent if spent else 0.0


def op_times(attempts: list[Attempt], timing: str = "cpu_s") -> list[float]:
    """Op times of the correct ops, or of all ops when none was correct."""
    good = [a for a in attempts if not a.problems] or attempts
    return [getattr(a, timing) for a in good]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def machine_info() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def probe_setup(name: str, seed: int) -> float:
    """Import-to-first-op time in reference seconds, measured in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(attempts: list[Attempt], setup_times: list[float]) -> dict[str, float]:
    return {
        "items_per_ref_s": throughput(attempts, "ref_s"),
        "op_ref_p50_s": median(op_times(attempts, "ref_s")),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setup_times),
    }


def per_layer(workload, traced: list[Attempt], reference: list[Attempt]) -> tuple[dict, dict]:
    """The per_layer metrics, and every traced function's per-op medians."""
    from perfbench import layers

    good = [a for a in traced if not a.problems]
    per_op = [layers.op_layer_values(a.summary, a.counters, workload.moves(a.items)) for a in good]
    values = {
        m.name: median([v[m.name] for v in per_op])
        for m in layers.LAYER_METRICS
        if m.name != "trace_overhead"
    }
    values["trace_overhead"] = median(op_times(traced)) / median(op_times(reference))
    functions = {
        fn: {
            "calls": median([a.summary.get(fn, (0, 0.0))[0] for a in good]),
            "self_s": median([a.summary.get(fn, (0, 0.0))[1] for a in good]),
        }
        for fn in layers.TRACED
    }
    return values, functions


def traced_run(name: str, seed: int, workload, ctx, workdir: Path, seconds: float):
    """Traced and untraced ops in turn; writes spans and layers.json."""
    from perfbench import layers, tracing

    tracer = tracing.Tracer(layers.PACKAGE, layers.TRACED, layers.ON_RESULT)
    attempts = closed_loop(workload, ctx, workdir, seconds, tracer)
    traced = [a for a in attempts if a.summary is not None]
    reference = [a for a in attempts if a.summary is None]
    metrics, functions = per_layer(workload, traced, reference)
    out = OUT_DIR / f"trace-{name}"
    tracing.write_spans(tracer, out)
    table = {
        "workload": name,
        "seed": seed,
        "traced_ops": len(traced),
        "untraced_ops": len(reference),
        "machine": machine_info(),
        "metrics": [{**m._asdict(), "value": metrics[m.name]} for m in layers.LAYER_METRICS],
        "functions": functions,
    }
    (out / "layers.json").write_text(json.dumps(table, indent=1) + "\n")
    return attempts, metrics, {m.name: m.unit for m in layers.LAYER_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import calibrate, workloads

    setup_times = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_REPEATS)]
    workload = workloads.WORKLOADS[name]()
    ctx = workload.setup(seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            attempts, metrics, units = traced_run(name, seed, workload, ctx, workdir, seconds)
        else:
            with calibrate.SliceClock() as clock:
                attempts = closed_loop(workload, ctx, workdir, seconds, clock=clock)
            metrics, units = end_to_end(attempts, setup_times), E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [a for a in attempts if a.problems]
    print(f"# machine {json.dumps(machine_info())}")
    print(
        f"# workload {name}, seed {seed}: {len(attempts)} ops in a closed loop with one client; "
        f"work item: {workload.item}"
    )
    for metric, value in metrics.items():
        print(f"{metric:<48} {value:>16.6g} {units[metric]}")
    if not trace:
        cpus = op_times(attempts)
        slices = op_times(attempts, "slice_s")
        print(
            f"# op_ref_p50_s over {len(cpus)} ops, setup_s over {len(setup_times)} set-ups; "
            f"unscaled CPU: {throughput(attempts):.6g} items/s, op p50 {median(cpus):.6g} s; "
            f"calibration slice p50 {median(slices) * 1e3:.4g} ms "
            f"(reference {calibrate.REFERENCE_SLICE_S * 1e3:g} ms)"
        )
    print(f"# error_rate {len(failed)}/{len(attempts)} = {len(failed) / len(attempts):g}")
    for a in failed:
        for problem in a.problems:
            print(f"FAILED op: {problem}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: workload {name} printed no result", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv=None) -> argparse.Namespace:
    def positive(text: str) -> float:
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=positive, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "extparab" / "__init__.py").is_file():
        print(f"error: no extparab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.probe_setup:
        start = time.process_time()
        from perfbench import calibrate, workloads

        workloads.WORKLOADS[args.workload]().setup(args.seed)
        setup_cpu_s = time.process_time() - start
        clock = calibrate.SliceClock()
        for _ in range(SETUP_SLICES):
            clock.run_slice()
        print(calibrate.reference_s(setup_cpu_s, clock.slice_cpu_s / clock.slices))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
