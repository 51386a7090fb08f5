"""Objectives, line search, pivot rules and the active-set runner."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extparab import exactla, polytope
from extparab.activeset import (
    FirstIndex,
    PivotRule,
    QuadraticObjective,
    active_set_run,
    grid_index,
    line_search,
    make_rule,
    objective_constant,
    pullback_objective,
    trace_plot_rows,
    trace_to_json,
    walk,
)
from extparab.errors import (
    DimensionMismatch,
    NotAVertex,
    NotImproving,
    UnboundedImprovement,
    UnknownRule,
)
from extparab.extension import ConstructionParams, build, vertex_for_t
from extparab.polytope import HPolytope
from test_hotpath_oracle import (
    fraction_coords,
    functional_value,
    improving_edges,
    reference_gradient_at,
    reference_line_search,
    reference_slope,
)


@pytest.fixture(scope="module")
def tower():
    ext = build(ConstructionParams(n=16, d=4))
    return ext, pullback_objective(ext)


def vertex_sequence(trace):
    """The trace's vertices as Fraction tuples (test-side reference)."""
    return tuple(fraction_coords(step) for step in trace.steps)


def finite_difference_gradient(f, x):
    # Central differences with step 1 are exact for quadratics.
    out = []
    for i in range(len(x)):
        e = [int(j == i) for j in range(len(x))]
        plus = tuple(a + b for a, b in zip(x, e))
        minus = tuple(a - b for a, b in zip(x, e))
        out.append((f.value(plus) - f.value(minus)) / 2)
    return tuple(out)


def test_gradient_squared_norm():
    f = QuadraticObjective(quad=((1, 0), (0, 1)), linear=(0, 0))
    assert f.gradient((1, 2)) == (2, 4)
    assert f.gradient((1, 2)) == finite_difference_gradient(f, (F(1), F(2)))


def test_gradient_linear_objective():
    f = QuadraticObjective(quad=((0, 0), (0, 0)), linear=(3, -7))
    assert f.gradient((5, 11)) == (3, -7)


def test_gradient_instance_origin(tower):
    ext, f = tower
    origin = (F(0),) * 4
    assert f.gradient(origin) == (0, F(-1, 25), F(-9, 10), -1)
    assert f.gradient(origin) == finite_difference_gradient(f, origin)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=6, max_size=6),
    rationals,
    st.lists(rationals, min_size=3, max_size=3),
)
def test_cleared_form_matches_fraction_form(linear, upper, constant, x):
    # A symmetric 3x3 quad part from its six upper-triangle entries.
    a, b, c, d, e, h = upper
    f = QuadraticObjective(quad=((a, b, c), (b, d, e), (c, e, h)), linear=linear, constant=constant)
    nums, denom = exactla.common_denominator(x)
    expected = (
        sum(x[i] * f.quad[i][j] * x[j] for i in range(3) for j in range(3))
        + sum(l * xi for l, xi in zip(linear, x))
        + constant
    )
    value, value_denom = f.value_at(nums, denom)
    assert value_denom == f._cleared[0] * denom**2 > 0  # the unreduced pair (numerator, S D^2)
    assert F(value, value_denom) == f.value(x) == expected
    numerators, scale = reference_gradient_at(f, nums, denom)
    assert scale > 0
    assert tuple(F(g, scale) for g in numerators) == f.gradient(x)
    # The line search's curvature term S u^T quad u, here for u = nums.
    curvature = F(f._scaled_form(nums), f._cleared[0] * denom**2)
    assert curvature == expected - constant - sum(l * xi for l, xi in zip(linear, x))


def test_pullback_constant(tower):
    assert objective_constant(16) == F(9, 10)


def test_pullback_values_on_path(tower):
    ext, f = tower
    for t in range(16):
        assert f.value(vertex_for_t(ext, t)) == F(t, 150)
    assert f.value(vertex_for_t(ext, 15)) == F(1, 10)


def test_pullback_is_rank_one_convex(tower):
    ext, f = tower
    assert f.quad == tuple(tuple(a * b for b in ext.phi.coeffs) for a in ext.phi.coeffs)
    for direction in ((1, 0, 0, 0), (1, -2, 3, -4), (0, 0, 1, 1)):
        assert f._scaled_form(direction) >= 0


def test_line_search_boundary_stop(tower):
    ext, f = tower
    v0 = polytope.scaled_point(ext.poly, vertex_for_t(ext, 0))
    edges = polytope.edge_directions(ext.poly, v0)
    facet, direction = next(
        (fc, d) for fc, d in edges if exactla.dot(f.gradient(fraction_coords(v0)), d) > 0
    )
    slope = reference_slope(f, v0.nums, v0.denom, direction)
    mu_max, _ = polytope.ratio_test(ext.poly, v0, direction)
    # convex objective: improving all the way to the boundary
    assert line_search(f, direction, mu_max, slope) == mu_max
    assert line_search(f, direction, (1, 9), slope) == (1, 9)


def test_line_search_interior_root():
    # f(x) = x - x^2 on the line: g(mu) = 1 - 2 mu vanishes at 1/2.
    f = QuadraticObjective(quad=((-1,),), linear=(1,))
    assert F(*line_search(f, (1,), (10, 1), reference_slope(f, (0,), 1, (1,)))) == F(1, 2)


def test_line_search_blocked_immediately():
    f = QuadraticObjective(quad=((1,),), linear=(1,))
    assert F(*line_search(f, (1,), (0, 1), reference_slope(f, (0,), 1, (1,)))) == 0


pairs = st.tuples(st.integers(0, 60), st.integers(1, 60))


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=2, max_size=2),
    st.lists(rationals, min_size=2, max_size=2),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
    st.none() | pairs,
)
@example([-1, 0, 0], [1, 0], [0, 0], (1, 0), (1, 2))  # mu_max ties the root 1/2
@example([-1, 0, 0], [1, 0], [0, 0], (1, 0), (4, 8))  # the same tie, unreduced
@example([-1, 0, 0], [1, 0], [0, 0], (1, 0), None)  # the root alone
@example([1, 0, 0], [1, 0], [0, 0], (1, 0), None)  # convex and unbounded
@settings(max_examples=300, deadline=None)
def test_line_search_pair_minimum_matches_the_fraction_minimum(quad, linear, x, direction, mu_max):
    # The pair line_search returns, compared by value with the Fraction
    # reference's minimum of mu_max and the root, None (no cap) included;
    # where the reference raises, so does line_search.
    a, b, c = quad
    f = QuadraticObjective(quad=((a, b), (b, c)), linear=linear)
    slope = reference_slope(f, *exactla.common_denominator(x), direction)
    capped = None if mu_max is None else F(*mu_max)
    try:
        expected = reference_line_search(f, x, direction, capped)
    except (NotImproving, UnboundedImprovement) as exc:
        with pytest.raises(type(exc)):
            line_search(f, direction, mu_max, slope)
        return
    num, den = line_search(f, direction, mu_max, slope)
    assert den > 0 and F(num, den) == expected


def test_line_search_requires_improvement():
    f = QuadraticObjective(quad=((1,),), linear=(0,))
    with pytest.raises(NotImproving):
        line_search(f, (1,), (1, 1), reference_slope(f, (0,), 1, (1,)))


def test_line_search_unbounded():
    f = QuadraticObjective(quad=((0,),), linear=(1,))
    with pytest.raises(UnboundedImprovement):
        line_search(f, (1,), None, reference_slope(f, (0,), 1, (1,)))


def test_improving_edges_instance(tower):
    # The inner products of the gradient with the chords to vertex t = k
    # follow the closed form k (3/2 - k)/(M-1)^2: positive only for k = 1.
    ext, f = tower
    v0 = vertex_for_t(ext, 0)
    for k in (1, 7, 15):
        chord = [a - b for a, b in zip(vertex_for_t(ext, k), v0)]
        expected = F(k, 225) * (F(3, 2) - k)
        assert exactla.dot(f.gradient(v0), chord) == expected
    edges = polytope.edge_directions(ext.poly, polytope.scaled_point(ext.poly, v0))
    assert len(improving_edges(edges, f.gradient(v0))) == 1


def test_improving_edges_zero_objective(tower):
    ext, _ = tower
    zero = QuadraticObjective(
        quad=((F(0),) * 4,) * 4, linear=(0, 0, 0, 0)
    )
    v0 = polytope.scaled_point(ext.poly, vertex_for_t(ext, 0))
    edges = polytope.edge_directions(ext.poly, v0)
    assert improving_edges(edges, reference_gradient_at(zero, v0.nums, v0.denom)[0]) == []


def test_run_visits_all_vertices_in_order(tower):
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), 64)
    assert trace.terminated == "Optimal"
    assert trace.vertices_visited == 16
    assert trace.edge_moves == 15
    expected = [vertex_for_t(ext, t) for t in range(16)]
    assert list(vertex_sequence(trace)) == expected


def test_walk_records_are_the_trace(tower):
    # The runner's trace is the walk's records, one per vertex; only the
    # last has no direction, and every other one offered exactly one edge.
    ext, f = tower
    start = vertex_for_t(ext, 0)
    trace = active_set_run(ext.poly, f, start, FirstIndex(), 64)
    records = list(walk(ext.poly, f, polytope.scaled_point(ext.poly, start), FirstIndex(), 64))
    assert tuple(step for _, _, step in records) == trace.steps
    assert all(fraction_coords(point) == fraction_coords(step) for point, _, step in records)
    # A step keeps the integer state, not the slack list.
    assert all((step.nums, step.denom) == point[:2] for point, _, step in records)
    assert not any(isinstance(field, list) for _, _, step in records for field in step)
    assert [len(improving) for _, improving, _ in records] == [1] * 15 + [0]
    assert [step.direction is None for _, _, step in records] == [False] * 15 + [True]


def test_walk_stops_at_max_iter(tower):
    ext, f = tower
    start = polytope.scaled_point(ext.poly, vertex_for_t(ext, 0))
    records = list(walk(ext.poly, f, start, FirstIndex(), 3))
    reached = [fraction_coords(step) for _, _, step in records]
    assert reached == [vertex_for_t(ext, t) for t in range(4)]
    _, improving, last = records[-1]
    assert (last.direction, last.mu, len(improving)) == (None, None, 1)
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), 3)
    assert (trace.terminated, trace.edge_moves) == ("MaxIterations", 3)


def test_run_rule_invariance(tower):
    ext, f = tower
    start = vertex_for_t(ext, 0)
    reference = active_set_run(ext.poly, f, start, make_rule("first"), 64)
    for name, seeds in [("last", [None]), ("adversarial", [None]), ("random", range(10))]:
        for seed in seeds:
            trace = active_set_run(ext.poly, f, start, make_rule(name, seed), 64)
            assert vertex_sequence(trace) == vertex_sequence(reference)


def test_run_from_optimum(tower):
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 15), FirstIndex(), 64)
    assert trace.terminated == "Optimal"
    assert trace.edge_moves == 0
    assert trace.vertices_visited == 1


def test_run_trace_invariants(tower):
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), 64)
    values = [F(*s.f_value) for s in trace.steps]
    assert all(a < b for a, b in zip(values, values[1:]))
    for step in trace.steps:
        assert polytope.contains(ext.poly, fraction_coords(step))
        assert polytope.is_simple_vertex(ext.poly, fraction_coords(step))
        assert step.tight == polytope.tight_set(ext.poly, fraction_coords(step))
        assert len(step.tight) == ext.poly.dim
    for a, b in zip(trace.steps, trace.steps[1:]):
        assert fraction_coords(a) != fraction_coords(b)


def test_run_max_iterations(tower):
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), max_iter=3)
    assert trace.terminated == "MaxIterations"
    assert trace.edge_moves == 3
    assert trace.vertices_visited == 4


def test_run_rejects_non_vertex_start(tower):
    ext, f = tower
    interior = tuple(
        (a + b) / 2 for a, b in zip(vertex_for_t(ext, 0), vertex_for_t(ext, 1))
    )
    with pytest.raises(NotAVertex):
        active_set_run(ext.poly, f, interior, FirstIndex(), 64)


def test_rule_is_offered_the_integer_state(tower):
    ext, f = tower
    offered = []

    class Recording(PivotRule):
        def choose_direction(self, candidates, vertex):
            offered.append(vertex)
            return candidates[0]

    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), Recording(), 64)
    assert all(isinstance(vertex, polytope.ScaledPoint) for vertex in offered)
    assert [fraction_coords(vertex) for vertex in offered] == list(vertex_sequence(trace)[:-1])


def test_run_rejects_rule_contract_violation(tower):
    ext, f = tower

    class Cheat(PivotRule):
        def choose_direction(self, candidates, vertex):
            return ("bogus", (0, 0, 0, 0))

    with pytest.raises(UnknownRule):
        active_set_run(ext.poly, f, vertex_for_t(ext, 0), Cheat(), 64)


def test_make_rule_unknown():
    with pytest.raises(UnknownRule):
        make_rule("steepest")


def test_named_rules_pick_first_last_and_middle():
    candidates = ["a", "b", "c", "d", "e"]
    names = ("first", "last", "adversarial")
    assert [make_rule(name).choose_direction(candidates, None) for name in names] == ["a", "e", "c"]


def test_seeded_random_is_deterministic():
    square = HPolytope(A=((1, 0), (-1, 0), (0, 1), (0, -1)), b=(1, 0, 1, 0))
    # maximize x1 + 2 x2: two improving edges at the origin, rule-dependent
    f = QuadraticObjective(quad=((0, 0), (0, 0)), linear=(1, 2))
    runs = [
        active_set_run(square, f, (F(0), F(0)), make_rule("random", 42), 16)
        for _ in range(3)
    ]
    assert vertex_sequence(runs[0]) == vertex_sequence(runs[1]) == vertex_sequence(runs[2])


def test_trace_json_schema(tower):
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), 64)
    text = trace_to_json(
        trace,
        instance={"n": 16, "d": 4, "M": 16, "c": "9/10"},
        t_values=[
            grid_index(ext, functional_value(ext.phi, fraction_coords(step))) for step in trace.steps
        ],
    )
    doc = json.loads(text)
    assert set(doc) == {"instance", "steps", "edge_moves", "loop_iterations", "terminated"}
    assert doc["terminated"] == "Optimal"
    assert doc["edge_moves"] == doc["loop_iterations"] == 15
    assert [s["t"] for s in doc["steps"]] == list(range(16))
    # "active" is kept for format compatibility; it is the tight set.
    assert [s["active"] for s in doc["steps"]] == [list(s.tight) for s in trace.steps]
    # first move: (1/225) (75, -50, 15, -12) reaches the t = 1 vertex
    first = doc["steps"][0]
    assert first["vertex"] == ["0", "0", "0", "0"]
    assert first["mu"] == "1/225"
    assert first["direction"] == [75, -50, 15, -12]
    last = doc["steps"][-1]
    assert last["direction"] is None and last["mu"] is None
    assert last["f"] == "1/10"


def test_trace_plot_rows(tower):
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), 64)
    rows = trace_plot_rows(trace, ext, [ext.phi.scaled_at(s.nums, s.denom) for s in trace.steps])
    assert rows[0] == ("0", "0", "0", "0")
    assert rows[-1][0] == "15"
    assert rows[-1][1] == "1"
    assert rows[-1][3] == "0.1"


def test_trace_writers_refuse_a_label_count_that_is_not_one_per_step(tower):
    # A short list used to drop steps silently: 4 steps with 2 labels wrote 2.
    ext, f = tower
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), FirstIndex(), 3)
    assert len(trace.steps) == 4
    phis = [ext.phi.scaled_at(step.nums, step.denom) for step in trace.steps]
    labels = [grid_index(ext, *phi) for phi in phis]
    for short_or_long in (labels[:2], labels + [4]):
        with pytest.raises(DimensionMismatch, match="trace steps"):
            trace_to_json(trace, None, short_or_long)
    for short_or_long in (phis[:2], phis + [(1, 1)]):
        with pytest.raises(DimensionMismatch, match="trace steps"):
            trace_plot_rows(trace, ext, short_or_long)
    assert len(json.loads(trace_to_json(trace, None, labels))["steps"]) == 4
    assert len(trace_plot_rows(trace, ext, phis)) == 4


def test_grid_index_off_grid(tower):
    ext, _ = tower
    assert grid_index(ext, F(1, 15)) == 1
    assert grid_index(ext, F(1, 30)) is None
    assert grid_index(ext, F(16, 15)) is None
    assert grid_index(ext, F(-1, 15)) is None
    # the same values as integer pairs with a common factor, as run passes them
    assert grid_index(ext, 2, 30) == 1
    assert grid_index(ext, 1, 30) is None
    assert grid_index(ext, 32, 30) is None
    assert grid_index(ext, -2, 30) is None


def test_runner_checks_survive_optimize_flag():
    # Under python -O a corrupted step, a blocking tie and a tampered
    # objective value must each still be refused by an explicit raise.
    code = (
        "from extparab import activeset, polytope\n"
        "from extparab.activeset import QuadraticObjective, active_set_run, make_rule, pullback_objective\n"
        "from extparab.errors import DegenerateVertex, InternalMismatch, NotAVertex\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "from extparab.polytope import HPolytope\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "f = pullback_objective(ext)\n"
        "def run(poly=ext.poly, objective=f, start=vertex_for_t(ext, 0)):\n"
        "    try:\n"
        "        active_set_run(poly, objective, start, make_rule('first'), 64)\n"
        "    except (NotAVertex, InternalMismatch, DegenerateVertex) as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
        "    else:\n"
        "        print('accepted')\n"
        "search, step, value_at = activeset.line_search, polytope.step, QuadraticObjective.value_at\n"
        "activeset.line_search = lambda *args: (lambda num, den: (num, 2 * den))(*search(*args))\n"
        "run()\n"
        "activeset.line_search = lambda *args: (0, 1)\n"
        "run()\n"
        "activeset.line_search = search\n"
        "polytope.step = lambda *args: (step(*args)[0], 2 * step(*args)[1])\n"
        "run()\n"
        "polytope.step = step\n"
        "QuadraticObjective.value_at = lambda self, nums, denom: (1, 1)\n"
        "run()\n"
        "QuadraticObjective.value_at = value_at\n"
        "square = HPolytope(((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)), (1, 1, 0, 0, 2))\n"
        "run(square, QuadraticObjective(((0, 0), (0, 0)), (1, 1)), (0, 0))\n"
        "run()\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        # half the step: the iterate stops mid-edge
        "NotAVertex: iterate has 3 tight rows, need 4",
        "InternalMismatch: a feasible improving edge must allow mu > 0",
        # the denominator doubled: the point halfway back to the origin
        "NotAVertex: iterate has 3 tight rows, need 4",
        "InternalMismatch: objective must strictly increase on a move",
        # x1 + x2 <= 2 also blocks at (1, 1)
        "DegenerateVertex: blocking tie leaves 3 tight rows at the new point",
        "accepted",  # every patch undone
    ]


def test_a_step_pair_that_is_not_positive_is_refused_before_any_step_under_optimize_flag():
    # Under python -O a ratio test that returns (-1, -2), whose value 1/2 is
    # positive but whose terms are not, or (0, 5) as mu_max must be refused by
    # the walk's explicit num > 0 < den check before polytope.step moves.
    code = (
        "from extparab import polytope\n"
        "from extparab.activeset import active_set_run, make_rule, pullback_objective\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "ratio_test, step, steps = polytope.ratio_test, polytope.step, []\n"
        "polytope.step = lambda *args: steps.append(args) or step(*args)\n"
        "for pair in ((-1, -2), (0, 5)):\n"
        "    polytope.ratio_test = lambda *args: (pair, ratio_test(*args)[1])\n"
        "    try:\n"
        "        active_set_run(ext.poly, pullback_objective(ext), vertex_for_t(ext, 0), make_rule('first'), 64)\n"
        "    except InternalMismatch as exc:\n"
        "        print(f'{pair}, {len(steps)} steps: {exc}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "(-1, -2), 0 steps: a feasible improving edge must allow mu > 0",
        "(0, 5), 0 steps: a feasible improving edge must allow mu > 0",
    ]


def test_a_stale_linear_price_is_refused_before_the_step_under_optimize_flag():
    # Under python -O a table entry that is not the chosen edge's linear price
    # must be refused by the walk's explicit comparison with the price taken
    # afresh, before polytope.step moves.  From the fifth price on, the table
    # is filled off by one (the edge's offer may stay right) or by 10**9 (a
    # falling edge is offered as well).
    code = (
        "from extparab import activeset, polytope\n"
        "from extparab.activeset import make_rule, pullback_objective, start_point, walk\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "f = pullback_objective(ext)\n"
        "price, step, prices, steps = activeset._linear_price, polytope.step, [], []\n"
        "polytope.step = lambda *args: steps.append(args) or step(*args)\n"
        "for shift in (1, 10**9):\n"
        "    prices.clear(), steps.clear()\n"
        "    activeset._linear_price = (\n"
        "        lambda *args: price(*args) + shift * (len(prices.append(args) or prices) > 4)\n"
        "    )\n"
        "    moves = 0\n"
        "    try:\n"
        "        for _ in walk(ext.poly, f, start_point(ext.poly, f, vertex_for_t(ext, 0)), make_rule('first'), 64):\n"
        "            moves += 1\n"
        "    except InternalMismatch as exc:\n"
        "        print(f'{shift}: {moves} moves, {len(steps)} steps: {exc}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1: 2 moves, 2 steps: the table's linear price for facet 1 is stale",
        "1000000000: 2 moves, 2 steps: the table's linear price for facet 1 is stale",
    ]
