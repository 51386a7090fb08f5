"""End-to-end CLI contracts: files, stdout summaries, exit codes."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extparab import activeset, deformed, exactla, polytope
from extparab.cli import build_parser, main
from extparab.errors import InternalMismatch
from extparab.extension import ConstructionParams, build, vertex_for_t


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def test_build_d4_writes_all_formats(tmp_path, capsys):
    prefix = str(tmp_path / "q4")
    assert run_cli(["build", "--d", "4", "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "8 facets, 16 vertices" in out
    ine = (tmp_path / "q4.ine").read_text()
    assert "8 5 rational" in ine
    ext_text = (tmp_path / "q4.ext").read_text()
    assert "16 5 rational" in ext_text
    sidecar = json.loads((tmp_path / "q4.json").read_text())
    assert sidecar["M"] == 16
    assert sidecar["phi_prime"] == ["0", "1/25", "0", "1"]


def test_build_round_trip(tmp_path):
    prefix = str(tmp_path / "q6")
    assert run_cli(["build", "--d", "6", "--out", prefix, "--format", "ine"]) == 0
    parsed = polytope.hrep_from_ine((tmp_path / "q6.ine").read_text())
    assert parsed == build(ConstructionParams(n=24, d=6)).poly


def test_build_base_case(tmp_path):
    prefix = str(tmp_path / "q2")
    assert run_cli(["build", "--d", "2", "--n", "8", "--out", prefix]) == 0
    ine = (tmp_path / "q2.ine").read_text()
    assert "4 3 rational" in ine


def test_build_rejects_odd_dimension(tmp_path):
    assert run_cli(["build", "--d", "3", "--out", str(tmp_path / "x")]) == 2


def test_verify_passes(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert run_cli(["verify", "--d", "4", "--out", report_path]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["ok"]
    assert doc["construction"]["ok"]
    assert all(e["ok"] for e in doc["normal_equivalence"])
    assert all(e["ok"] for e in doc["stage_vertex_checks"])
    out = capsys.readouterr().out
    assert "PASS facet_count" in out


def test_verify_d8_passes():
    assert run_cli(["verify", "--d", "8"]) == 0


def test_verify_d10_passes(capsys):
    assert run_cli(["verify", "--d", "10"]) == 0
    assert capsys.readouterr().out.endswith("verify d=10 n=40: PASS\n")


def test_verify_base_case_passes():
    assert run_cli(["verify", "--d", "2", "--n", "8"]) == 0


def test_verify_detects_phi_weight_fault(capsys):
    assert run_cli(["verify", "--d", "4", "--inject-fault", "phi-weight"]) == 1
    out = capsys.readouterr().out
    assert "FAIL projection_identity" in out


def test_verify_detects_vertex_fault():
    assert run_cli(["verify", "--d", "4", "--inject-fault", "vertex"]) == 1


def test_run_first_rule(tmp_path, capsys):
    prefix = str(tmp_path / "run4")
    assert run_cli(["run", "--d", "4", "--rule", "first", "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "visited 16 vertices in 15 moves" in out
    doc = json.loads((tmp_path / "run4.trace.json").read_text())
    assert doc["terminated"] == "Optimal"
    assert doc["instance"] == {"n": 16, "d": 4, "M": 16, "c": "9/10"}
    assert [s["t"] for s in doc["steps"]] == list(range(16))
    plot = (tmp_path / "run4.plot.csv").read_text().strip().splitlines()
    assert plot[0] == "t,phi,phi_prime,f"
    assert len(plot) == 17


def test_run_evaluates_phi_once_per_step(tmp_path, capsys, monkeypatch):
    # The trace's t labels and the plot's t and phi columns share one phi
    # value per step; phi' is the only other functional evaluated.  Both are
    # evaluated a batch at a time on the steps' integer state, never on
    # Fraction vertices and never point by point: a Functional is not
    # callable, and the calls put in place here refuse.
    points = {}  # the coefficients of each functional evaluated -> points it was evaluated at
    real_scaled_columns = deformed.Functional.scaled_columns

    def counting(self, columns, denoms):
        ints = [*denoms, *(x for column in columns for x in column)]
        assert ints and all(type(x) is int for x in ints)
        points[self.coeffs] = points.get(self.coeffs, 0) + len(denoms)
        return real_scaled_columns(self, columns, denoms)

    def refuse(self, *args):
        raise AssertionError("run evaluated a functional on a Fraction vertex or point by point")

    monkeypatch.setattr(deformed.Functional, "scaled_columns", counting)
    monkeypatch.setattr(deformed.Functional, "scaled_at", refuse)
    monkeypatch.setattr(deformed.Functional, "__call__", refuse, raising=False)
    assert run_cli(["run", "--d", "8", "--out", str(tmp_path / "run8")]) == 0
    capsys.readouterr()
    ext = build(ConstructionParams(n=32, d=8))
    _, scales = polytope.equilibrated(ext.poly)
    phis = [tuple(a / s for a, s in zip(g.coeffs, scales)) for g in (ext.phi, ext.phi_prime)]
    assert points == {phi: 256 for phi in phis}


def test_run_random_seed_matches_first(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run_cli(["run", "--d", "4", "--rule", "first", "--out", a]) == 0
    assert run_cli(["run", "--d", "4", "--rule", "random", "--seed", "7", "--out", b]) == 0
    doc_a = json.loads((tmp_path / "a.trace.json").read_text())
    doc_b = json.loads((tmp_path / "b.trace.json").read_text())
    assert [s["vertex"] for s in doc_a["steps"]] == [s["vertex"] for s in doc_b["steps"]]


def test_run_unknown_rule_is_usage_error(tmp_path, capsys):
    code = run_cli(["run", "--d", "4", "--rule", "nosuch", "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 2


def expected_run_files(n, d, rule, seed, max_iter):
    """The trace JSON and plot CSV texts that ``trace_to_json`` and
    ``trace_plot_rows`` give for the whole ``active_set_run`` trace."""
    ext = build(ConstructionParams(n=n, d=d))
    f = activeset.pullback_objective(ext)
    rule = activeset.make_rule(rule, seed)
    m_top = ext.params.vertex_count
    max_iter = 4 * m_top if max_iter is None else max_iter  # as run's default
    trace = activeset.active_set_run(ext.poly, f, vertex_for_t(ext, 0), rule, max_iter)
    instance = {"n": n, "d": d, "M": m_top, "c": str(activeset.objective_constant(m_top))}
    phis = [ext.phi.scaled_at(step.nums, step.denom) for step in trace.steps]
    t_values = [activeset.grid_index(ext, *phi) for phi in phis]
    rows = activeset.trace_plot_rows(trace, ext, phis)
    plot = "t,phi,phi_prime,f\n" + "".join(",".join(row) + "\n" for row in rows)
    return activeset.trace_to_json(trace, instance, t_values) + "\n", plot, trace


@pytest.mark.parametrize(
    "n, d, rule, seed, max_iter, batch",
    [
        *[(16, 4, rule, 5, None, None) for rule in activeset.RULE_NAMES],
        *[(32, 8, rule, 5, None, None) for rule in activeset.RULE_NAMES],
        (48, 6, "first", None, None, None),
        (16, 4, "first", None, 0, None),
        (16, 4, "last", None, 3, None),
        (24, 6, "first", None, 3, None),
        (16, 4, "first", None, None, 4),  # 16 steps: the walk ends on a batch boundary
        (16, 4, "first", None, None, 5),  # 16 steps: the walk ends inside a batch
        (16, 4, "first", None, 3, 4),  # 4 steps: one full batch, then MaxIterations
        (40, 10, "first", None, 511, None),  # 512 steps: a whole number of default batches
        (32, 8, "first", None, activeset._BATCH - 1, None),  # exactly one default batch
    ],
)
def test_streamed_run_files_are_the_trace_writers_output(
    tmp_path, capsys, monkeypatch, n, d, rule, seed, max_iter, batch
):
    if batch is not None:
        monkeypatch.setattr(activeset, "_BATCH", batch)
    argv = ["run", "--n", str(n), "--d", str(d), "--rule", rule, "--out", str(tmp_path / "r")]
    argv += [] if seed is None else ["--seed", str(seed)]
    argv += [] if max_iter is None else ["--max-iter", str(max_iter)]
    trace_text, plot_text, trace = expected_run_files(n, d, rule, seed, max_iter)
    assert run_cli(argv) == (0 if trace.terminated == "Optimal" else 1)
    out = capsys.readouterr().out
    assert f"visited {len(trace.steps)} vertices in {trace.edge_moves} moves" in out
    assert (tmp_path / "r.trace.json").read_text() == trace_text
    assert (tmp_path / "r.plot.csv").read_text() == plot_text
    assert sorted(os.listdir(tmp_path)) == ["r.plot.csv", "r.trace.json"]


@pytest.mark.parametrize("earlier", [False, True], ids=["no-earlier-files", "earlier-files"])
def test_failed_walk_leaves_no_partial_files(tmp_path, capsys, monkeypatch, earlier):
    # Move 600 of the d = 10 walk fails, after the first batches of steps
    # went to the temporary trace file.  Those files are removed, and files
    # that an earlier run left at the prefix keep their content.
    prefix = tmp_path / "r"
    if earlier:
        for suffix in ("trace.json", "plot.csv"):
            (tmp_path / f"r.{suffix}").write_text(f"earlier {suffix}\n")
    real_line_search = activeset.line_search
    calls, partial_sizes = [], []

    def failing_at_move_600(*args):
        calls.append(None)
        if len(calls) == 600:
            partial_sizes.append(os.path.getsize(f"{prefix}.trace.json.part"))
            raise InternalMismatch("injected at move 600")
        return real_line_search(*args)

    monkeypatch.setattr(activeset, "line_search", failing_at_move_600)
    assert run_cli(["run", "--d", "10", "--out", str(prefix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "check failed: injected at move 600\n"
    assert "wrote" not in captured.out
    assert partial_sizes and partial_sizes[0] > 0
    if earlier:
        assert sorted(os.listdir(tmp_path)) == ["r.plot.csv", "r.trace.json"]
        for suffix in ("trace.json", "plot.csv"):
            assert (tmp_path / f"r.{suffix}").read_text() == f"earlier {suffix}\n"
    else:
        assert os.listdir(tmp_path) == []


def test_unwritable_out_names_the_trace_path(tmp_path, capsys):
    prefix = tmp_path / "missing" / "r"
    assert run_cli(["run", "--d", "4", "--out", str(prefix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"io error: [Errno 2] No such file or directory: '{prefix}.trace.json'\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_build_with_a_directory_in_the_way_writes_no_file(tmp_path, capsys):
    # X.json is a directory: the rename onto it would fail after X.ine and
    # X.ext took their names, so build refuses before the first rename.
    (tmp_path / "X.json").mkdir()
    assert run_cli(["build", "--d", "4", "--out", str(tmp_path / "X")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"io error: [Errno 21] Is a directory: '{tmp_path / 'X.json'}'\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["X.json"] and os.listdir(tmp_path / "X.json") == []


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (["verify", "--d", "4", "--out", "{dir}/v.json"], "v.json"),
        (["scan", "--M", "4", "--out", "{dir}/s.json"], "s.json"),
        (["report", "--d", "4,2", "--rules", "first", "--out", "{dir}/rep"], "rep_d2.csv"),
        (["run", "--d", "4", "--out", "{dir}/r"], "r.plot.csv"),
    ],
    ids=["verify", "scan", "report", "run"],
)
def test_every_writer_leaves_no_partial_file_when_its_path_is_a_directory(
    tmp_path, capsys, argv, blocked
):
    # Each command writes through .part files; a directory at the final path
    # fails the command (exit 1) and leaves no .part behind.  report's d = 4
    # file, written before the blocked d = 2 one, is the only file it keeps.
    (tmp_path / blocked).mkdir()
    assert run_cli([arg.format(dir=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"io error: [Errno 21] Is a directory: '{tmp_path / blocked}'\n"
    kept = ["rep_d4.csv"] if argv[0] == "report" else []
    assert sorted(os.listdir(tmp_path)) == sorted([blocked, *kept])


def test_run_memory_does_not_grow_with_the_walk(tmp_path, capsys):
    # The d = 12 walk has 4,096 steps.  Holding them all (a full Trace, then
    # the 3.3 MB trace JSON as one string) peaked at about 17 MB of traced
    # allocations; streaming them in batches peaks at about 2.8 MB, most of
    # it the tower and one batch.  5 MB leaves room for interpreter
    # differences and stays far below the whole-walk figure.
    tracemalloc.start()
    try:
        assert run_cli(["run", "--d", "12", "--out", str(tmp_path / "r")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 5_000_000, f"run --d 12 peaked at {peak / 1e6:.1f} MB of traced allocations"


def test_run_leaves_the_collector_few_collections(tmp_path, capsys):
    # stream_trace keeps one small batch of steps, whose containers stay
    # below the young generation's threshold, so a d = 12 run triggers a few
    # collections (3 on CPython 3.11), where batches of 512 whole walk
    # records triggered 59, four of them of the older generation too.  The
    # second run in the process is counted: a process's first run also fills
    # CPython's tuple free lists (2,000 of each size), and those allocations
    # count toward a collection with no deallocation to cancel them.
    assert run_cli(["run", "--d", "12", "--out", str(tmp_path / "first")]) == 0
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(count)
    try:
        assert run_cli(["run", "--d", "12", "--out", str(tmp_path / "r")]) == 0
    finally:
        gc.callbacks.remove(count)
    capsys.readouterr()
    assert len(generations) <= 10, generations


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--d", "4,x"],
        ["report", "--d", "4", "--seeds", "a..b"],
        ["run", "--d", "4", "--max-iter", "-1"],
        ["report", "--d", ","],
        ["report", "--d", "4", "--rules", "random", "--seeds", "5..1"],
        ["report", "--d", "4", "--rules", ","],
        ["report", "--d", "4", "--rules", "first,nosuch"],
        ["report", "--d", "4", "--seeds", "1..99999999999999999999"],
    ],
    ids=[
        "d-list",
        "seed-spec",
        "negative-max-iter",
        "empty-d-list",
        "empty-seed-range",
        "empty-rule-list",
        "unknown-rule-in-list",
        "seed-range-past-len",
    ],
)
def test_malformed_argument_is_usage_error(tmp_path, capsys, argv):
    code = run_cli(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid" in err and "Traceback" not in err


def test_long_seed_range_parses_at_once():
    # A range of seeds stays a range: parsing builds no list of 10^12 ints.
    started = time.perf_counter()
    args = build_parser().parse_args(["report", "--d", "4", "--seeds", "1..1000000000000"])
    assert args.seeds == range(1, 10**12 + 1) and len(args.seeds) == 10**12
    assert time.perf_counter() - started < 1.0


# Text that looks like each option's values, and text that does not.
NUMBER = st.from_regex(r"-?[0-9]{1,22}", fullmatch=True)
OPTION_TEXT = st.one_of(
    st.text(max_size=24),
    NUMBER,
    st.builds("..".join, st.lists(NUMBER, min_size=2, max_size=3)),
    st.builds(",".join, st.lists(NUMBER | st.sampled_from(activeset.RULE_NAMES), max_size=4)),
)
OPTIONS = [
    ("report", "--d"),
    ("report", "--rules"),
    ("report", "--seeds"),
    ("run", "--rule"),
    ("run", "--seed"),
    ("run", "--max-iter"),
    ("scan", "--M"),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPTIONS), OPTION_TEXT)
@example(("report", "--seeds"), "1..99999999999999999999")
@example(("report", "--seeds"), "-99999999999999999999..1")
@example(("run", "--max-iter"), "-1")
def test_cli_arguments_parse_or_exit_2(option, text):
    # Parsing only, no command runs: every text either parses to a value of
    # the option's type or ends in argparse's usage error, never another
    # exception.
    command, flag = option
    required = {"report": ["--d", "4"], "run": ["--d", "4"], "scan": ["--M", "4"]}[command]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args([command, *required, flag, text])
    except SystemExit as exc:
        assert exc.code == 2
        return
    value = getattr(args, flag[2:].replace("-", "_"))
    if flag in ("--d", "--rules", "--seeds"):
        assert len(value) > 0
    elif flag == "--max-iter":
        assert value >= 0


def test_scan_small(capsys):
    assert run_cli(["scan", "--M", "16"]) == 0
    out = capsys.readouterr().out
    assert "0 violations / 240 pairs" in out


def test_scan_refuses_beyond_cap(capsys):
    assert run_cli(["scan", "--M", "100000"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err
    assert "--cap-override" in err  # the flag that lifts the cap, not the API's cap=None


def test_scan_report_file(tmp_path):
    path = str(tmp_path / "scan.json")
    assert run_cli(["scan", "--M", "4", "--out", path]) == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc == {"M": 4, "pairs_checked": 12, "violations": [], "ok": True}


def test_report_table(tmp_path, capsys):
    prefix = str(tmp_path / "rep")
    code = run_cli(
        [
            "report",
            "--d",
            "4",
            "--rules",
            "first,last,random",
            "--seeds",
            "1..3",
            "--out",
            prefix,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "vertices_visited=16" in out
    csv_lines = (tmp_path / "rep_d4.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "rule,seed,vertices_visited,edge_moves,loop_iterations,wall_time_ms"
    assert len(csv_lines) == 1 + 2 + 3  # first, last, random x 3 seeds


@pytest.mark.parametrize("dims", ["4,3", "4,0", "4,-2", "3", "4,,5"])
def test_report_refuses_a_bad_d_before_any_work(tmp_path, capsys, dims):
    # Every d must be even and >= 2; a bad one later in the list is a usage
    # error before the first d is built, so no file and no result row exist.
    prefix = str(tmp_path / "P")
    argv = ["report", "--d", dims, "--rules", "first", "--seeds", "1", "--out", prefix]
    assert run_cli(argv) == 2
    assert "d=" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_report_detects_objective_fault(capsys):
    code = run_cli(
        ["report", "--d", "4", "--rules", "first", "--seeds", "1", "--inject-fault", "objective-c"]
    )
    capsys.readouterr()
    assert code == 1


def test_report_walks_each_path_once(monkeypatch, capsys):
    # Each run the report times is its certificate: one walk per rule and
    # seed, and none more for a separate first-index certificate, and no run
    # keeps a whole trace.
    walks, real_walk = [], activeset.walk

    def counted(*args):
        walks.append(args[3])
        return real_walk(*args)

    def refused(*args, **kwargs):
        raise AssertionError("iteration_experiment must not record whole traces")

    monkeypatch.setattr(activeset, "walk", counted)
    monkeypatch.setattr(activeset, "active_set_run", refused)
    assert run_cli(["report", "--d", "4", "--rules", "first,last", "--seeds", "1"]) == 0
    assert "rule=last" in capsys.readouterr().out
    assert [type(rule) for rule in walks] == [activeset.FirstIndex, activeset.LastIndex]


def test_negative_controls_survive_optimize_flag():
    # The injected faults must still exit 1 when python -O strips asserts; the
    # objective fault with only the last-index rule is caught by that rule's own run.
    code = (
        "import contextlib, io\n"
        "from extparab.cli import main\n"
        "assert False, 'asserts must be stripped'\n"
        "controls = [\n"
        "    ['verify', '--d', '4', '--inject-fault', 'phi-weight'],\n"
        "    ['verify', '--d', '4', '--inject-fault', 'vertex'],\n"
        "    ['report', '--d', '4', '--rules', 'first', '--seeds', '1', '--inject-fault', 'objective-c'],\n"
        "    ['report', '--d', '4', '--rules', 'last', '--seeds', '1', '--inject-fault', 'objective-c'],\n"
        "]\n"
        "for argv in controls:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "1", "1"]


def counted_everywhere(monkeypatch, module, name):
    """Wrap module.name on every extparab module that binds it, as the benchmark's
    tracer does, and return the list its calls append to."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if module_name == "extparab" or module_name.startswith("extparab."):
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls


@pytest.mark.parametrize("rule", activeset.RULE_NAMES)
def test_run_keeps_the_benchmark_count_identities(tmp_path, capsys, monkeypatch, rule):
    # The traced walk benchmark asserts d primitive calls and one edge
    # enumeration and one inverse per vertex; the coordinate change and the
    # trace writer's map back take their gcds directly and add none.
    counts = {
        name: counted_everywhere(monkeypatch, module, name)
        for module, name in (
            (exactla, "primitive"),
            (polytope, "edge_directions"),
            (exactla, "int_inverse_scaled"),
        )
    }
    assert run_cli(["run", "--d", "8", "--rule", rule, "--seed", "1", "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert {name: len(calls) for name, calls in counts.items()} == {
        "primitive": 2048,
        "edge_directions": 256,
        "int_inverse_scaled": 256,
    }
