"""Tests of the benchmark's own code, on small instances (seconds in total)."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from extparab import activeset, deformed, exactla, extension, polytope  # noqa: E402

from perfbench import calibrate, layers, run, tracing, workloads  # noqa: E402


def test_self_times_on_nested_spans():
    # root 0-100 with children a 10-30 (grandchild 15-20) and b 40-90;
    # b's children overlap (50-70, 60-80) and one runs past b's end (85-95).
    starts = [0, 10, 15, 40, 50, 60, 85]
    ends = [100, 30, 20, 90, 70, 80, 95]
    parents = [-1, 0, 1, 0, 3, 3, 3]
    assert tracing.self_times(starts, ends, parents) == [30, 15, 5, 15, 20, 20, 10]
    # A sub-range treats parents before it as absent.
    assert tracing.self_times(starts, ends, parents, lo=3, hi=7) == [15, 20, 20, 10]


def test_summarize_sums_self_time_per_name():
    names = ["outer", "inner"]
    summary = tracing.summarize(names, [0, 1, 1], [0, 10, 50], [100, 20, 70], [-1, 0, 0], 0, 3)
    assert summary == {"outer": (1, 70e-9), "inner": (2, 30e-9)}


def test_wrappers_record_spans_and_restore_originals():
    targets = ("deformed.dp_vrep", "activeset.QuadraticObjective.gradient", "exactla.dot")
    originals = (deformed.dp_vrep, extension.dp_vrep, activeset.QuadraticObjective.gradient, exactla.dot)
    tracer = tracing.Tracer(layers.PACKAGE, targets)
    with tracer.installed():
        # The by-name binding in extension is wrapped too.
        assert extension.dp_vrep is deformed.dp_vrep is not originals[0]
        assert activeset.QuadraticObjective.gradient is not originals[2]
        tracer.begin_op(0)
        ext = extension.build(extension.ConstructionParams(n=16, d=4))
        f = activeset.pullback_objective(ext)
        f.gradient(extension.vertex_for_t(ext, 0))
        extension.stage_vertices(ext, 4)
        tracer.end_op()
    after = (deformed.dp_vrep, extension.dp_vrep, activeset.QuadraticObjective.gradient, exactla.dot)
    assert all(a is b for a, b in zip(after, originals))
    summary = tracer.op_summary(0)
    assert summary["deformed.dp_vrep"][0] == 1
    assert summary["activeset.QuadraticObjective.gradient"][0] == 1
    # gradient -> matvec -> dot, once per row of the 4x4 quadratic part
    dot_parents = {tracer.parent[i] for i in range(len(tracer)) if tracer.names[tracer.name[i]] == "exactla.dot"}
    gradient_spans = {i for i in range(len(tracer)) if tracer.names[tracer.name[i]].endswith("gradient")}
    assert gradient_spans <= dot_parents


def test_wrappers_restore_after_an_exception():
    original = polytope.slacks
    with pytest.raises(RuntimeError):
        with tracing.Tracer(layers.PACKAGE, ("polytope.slacks",)).installed():
            assert polytope.slacks is not original
            raise RuntimeError("boom")
    assert polytope.slacks is original


def test_median_and_throughput():
    attempts = [
        run.Attempt(2.0, 100, [], ref_s=2.5),
        run.Attempt(1.0, 100, [], ref_s=1.5),
        run.Attempt(5.0, 0, ["wrong"], ref_s=9.0),
        run.Attempt(3.0, 100, [], ref_s=4.0),
    ]
    assert run.throughput(attempts) == 300 / 6.0
    assert run.throughput(attempts, "ref_s") == 300 / 8.0
    assert run.median(run.op_times(attempts)) == 2.0
    assert run.median(run.op_times(attempts, "ref_s")) == 2.5
    assert run.median([1.0, 4.0]) == 2.5
    assert run.median([]) == 0.0
    failed = [run.Attempt(1.0, 0, ["x"])]
    assert run.throughput(failed) == 0.0 and run.op_times(failed) == [1.0]


def test_reference_seconds_arithmetic():
    begin = calibrate.Stamp(cpu_s=10.0, slice_cpu_s=1.0, slices=50)
    end = calibrate.Stamp(cpu_s=13.5, slice_cpu_s=1.5, slices=70)
    assert calibrate.own_cpu_s(begin, end) == 3.0
    assert calibrate.mean_slice_s(begin, end) == 0.5 / 20
    # Slices twice as slow as the reference: the machine ran at half speed.
    assert calibrate.reference_s(3.0, 2 * calibrate.REFERENCE_SLICE_S) == 1.5


def test_slice_clock_samples_every_op_and_restores_sigalrm(tmp_path):
    previous = signal.getsignal(signal.SIGALRM)
    scan = workloads.Scan(m_count=64)
    with calibrate.SliceClock(interval=0.001) as clock:
        assert signal.getsignal(signal.SIGALRM) == clock.run_slice
        result = run.attempt(lambda: scan.op(None, 0, tmp_path), lambda out: scan.check(None, out), clock)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result.problems == [] and clock.slices >= 1
    assert result.cpu_s > 0 and result.slice_s > 0
    assert result.ref_s == calibrate.reference_s(result.cpu_s, result.slice_s)


def _walk_op(tmp_path, alter_f=False):
    walk = workloads.Walk(d=4)
    ctx = walk.setup(seed=7)

    def op():
        out = walk.op(ctx, 0, tmp_path)
        if alter_f:
            path = Path(f"{out.prefix}.trace.json")
            data = json.loads(path.read_text())
            data["steps"][5]["f"] = "1/1000000"
            path.write_text(json.dumps(data))
        return out

    return run.attempt(op, lambda out: walk.check(ctx, out))


def test_walk_op_passes_its_checks(tmp_path):
    result = _walk_op(tmp_path)
    assert result.problems == [] and result.items == 15


def test_walk_trace_with_one_altered_f_is_a_failed_op(tmp_path):
    result = _walk_op(tmp_path, alter_f=True)
    assert result.items == 0
    assert any("f differs" in p for p in result.problems)


def test_walk_digest_must_match_across_rules(tmp_path):
    walk = workloads.Walk(d=4)
    ctx = walk.setup(seed=1)
    ctx.reference_digest = "not the digest of this walk"
    result = run.attempt(lambda: walk.op(ctx, 0, tmp_path), lambda out: walk.check(ctx, out))
    assert any("vertex sequence differs" in p for p in result.problems)


def test_traced_walk_meets_the_count_identities(tmp_path):
    walk = workloads.Walk(d=4)
    ctx = walk.setup(seed=2)
    original = exactla.primitive
    tracer = tracing.Tracer(layers.PACKAGE, layers.TRACED, layers.ON_RESULT)
    untraced, result = run.closed_loop(walk, ctx, tmp_path, seconds=0, tracer=tracer)
    assert exactla.primitive is original
    assert untraced.summary is None and untraced.problems == []
    assert result.problems == []
    values = layers.op_layer_values(result.summary, result.counters, walk.moves(result.items))
    assert values["polytope.edge_directions.calls"] == 16
    assert values["exactla.primitive.calls"] == 4 * 16
    assert values["activeset.improving_share"] == 15 / (4 * 16)
    # A wrapper that missed calls would break the identities.
    short = dict(result.summary, **{"exactla.primitive": (4 * 16 - 1, 0.0)})
    assert workloads.walk_identities(4, 15, short, result.counters)


def _certify_op(tmp_path, truncate_ine=False):
    certify = workloads.Certify(n=16, d=4)
    ctx = certify.setup(seed=0)

    def op():
        out = certify.certify_and_write(tmp_path / "q")
        if truncate_ine:
            lines = out.ine_path.read_text().splitlines()
            out.ine_path.write_text("\n".join(lines[:-3]) + "\n")
        return certify.read_back(out)

    return run.attempt(op, lambda out: certify.check(ctx, out))


def test_certify_op_passes_its_checks(tmp_path):
    result = _certify_op(tmp_path)
    assert result.problems == [] and result.items == 16


def test_truncated_ine_is_a_failed_op(tmp_path):
    result = _certify_op(tmp_path, truncate_ine=True)
    assert result.items == 0 and result.problems


def test_scan_op_passes_its_checks(tmp_path):
    scan = workloads.Scan(m_count=64)
    result = run.attempt(lambda: scan.op(None, 0, tmp_path), lambda out: scan.check(None, out))
    assert result.problems == [] and result.items == 64 * 63


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "scan", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
