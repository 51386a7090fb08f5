"""The sparse integer hot path against the dense Fraction reference.

The reference below is the straightforward implementation the hot path
replaced: slacks as Fractions b_i - A_i . x, a Bareiss fraction-free
Gauss-Jordan inverse that updates every row at every pivot, primitive
vectors through Fractions, a dense tightness check, and rank by Fraction
Gaussian elimination.  At every vertex of the listed towers the hot path
must give exactly the same slacks, tight set, simple-vertex verdict and
(leaving facet, primitive direction) list, and so must the edges that the
runner and the path certificate pivot from one vertex to the next.

The active-set runner keeps its iterate as integer numerators over one
denominator; ``reference_active_set_run`` is the runner it replaced, with a
Fraction iterate, Fraction gradient, objective value and line search, and
its trace must equal the runner's step for step (its steps keep each
Fraction point as numerators over their lcm denominator, which is the
runner's integer state in lowest terms).  ``reference_gradient_at`` is the
integer gradient vector the runner no longer forms: the slope it hands
``line_search`` must be that vector's product with the followed edge at
every move.  ``trace_to_json_dict`` is the dict
that ``json.dumps(..., indent=2)`` used to serialize, which the direct trace
writer must reproduce byte for byte.

The trace and plot writers read the steps' integer state; every text they
write must equal the one derived from the step's Fraction vertex with
``functional_value`` (phi and phi' by ``exactla.dot``), ``str(Fraction)``,
``grid_index`` and ``reference_to_decimal``, the decimal rendering in a local context per value
that ``exactla.decimal_texts`` replaced.
"""

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extparab import activeset, exactla, polytope
from extparab.activeset import (
    QuadraticObjective,
    Trace,
    TraceStep,
    active_set_run,
    grid_index,
    make_rule,
    pullback_objective,
    start_point,
    trace_plot_rows,
    trace_to_json,
    walk,
)
from extparab.errors import (
    DegenerateVertex,
    DimensionMismatch,
    InternalMismatch,
    NotAVertex,
    NotFeasible,
    NotImproving,
    UnboundedImprovement,
    UnknownRule,
)
from extparab.extension import ConstructionParams, build, vertex_for_t
from extparab.lowerbound import monotone_path_check
from extparab.polytope import HPolytope


def reference_slacks(poly, x):
    return tuple(rhs - exactla.dot(row, x) for row, rhs in poly._int_rows)


def reference_tight_set(poly, x):
    return tuple(i for i, s in enumerate(reference_slacks(poly, x)) if s == 0)


def fraction_coords(state):
    """The Fraction coordinates nums/denom of a (nums, denom) state, ScaledPoint or TraceStep
    (test-side reference)."""
    nums, denom = state[:2]
    return tuple(Fraction(a, denom) for a in nums)


def x_state(ext, state):
    """A state of the tower's twin, y = s * x, as the lowest-terms state of x = y / s
    (test-side reference)."""
    nums, denom = state
    return exactla.common_denominator([Fraction(a, denom * s) for a, s in zip(nums, ext.scales)])


def y_state(ext, x):
    """The twin's lowest-terms state of y = s * x for a point x of ints and Fractions
    (test-side reference)."""
    return exactla.common_denominator([Fraction(a) * s for a, s in zip(x, ext.scales)])


def functional_value(phi, x):
    """phi(x) of an int or Fraction point (test-side reference; the package evaluates a
    functional on integer states only, with ``Functional.scaled_at``)."""
    if len(x) != phi.dim:
        raise DimensionMismatch(f"point has dim {len(x)}, functional {phi.dim}")
    return exactla.dot(phi.coeffs, x)


def reference_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
    work = [[Fraction(e) for e in row] for row in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pivot = work[r][col]
        for i in range(r + 1, m):
            factor = work[i][col]
            if factor == 0:
                continue
            factor /= pivot
            work[i] = [e - factor * p for e, p in zip(work[i], work[r])]
        r += 1
        if r == m:
            break
    return r


def reference_is_simple_vertex(poly, x):
    tight = reference_tight_set(poly, x)
    return len(tight) == poly.dim and reference_rank([poly.A[i] for i in tight]) == poly.dim


def reference_primitive(v):
    fracs = [Fraction(x) for x in v]
    scale = lcm(*(x.denominator for x in fracs))
    ints = [int(x * scale) for x in fracs]
    g = gcd(*ints)
    return tuple(n // g for n in ints)


def bareiss_inverse_scaled(rows):
    n = len(rows)
    work = [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k] != 0), None)
        if piv is None:
            return None
        work[k], work[piv] = work[piv], work[k]
        pivot = work[k][k]
        pivrow = work[k]
        for r in range(n):
            if r == k:
                continue
            row = work[r]
            mult = row[k]
            for c in range(2 * n):
                row[c] = (pivot * row[c] - mult * pivrow[c]) // prev
        prev = pivot
    diag = [work[i][i] for i in range(n)]
    scale = lcm(*diag)
    return [tuple(work[i][n + k] * (scale // diag[i]) for i in range(n)) for k in range(n)]


def reference_edge_directions(poly, v):
    tight = reference_tight_set(poly, v)
    if len(tight) != poly.dim:
        raise DegenerateVertex(f"{len(tight)} tight rows")
    int_rows = [poly._int_rows[i][0] for i in tight]
    columns = bareiss_inverse_scaled(int_rows)
    if columns is None:
        raise DegenerateVertex("tight rows are rank-deficient")
    result = []
    for k, col in enumerate(columns):
        direction = reference_primitive(tuple(-c for c in col))
        for j, row in enumerate(int_rows):
            prod = sum(a * e for a, e in zip(row, direction))
            if (j == k and prod >= 0) or (j != k and prod != 0):
                raise InternalMismatch(f"edge {k} breaks the pattern at row {j}")
        result.append((tight[k], direction))
    return result


def swap_between(before, after):
    """(leaving facet, entering row) of a move between two vertices, from their tight sets:
    what the walk hands ``edge_directions`` from the edge it followed and ``ratio_test``."""
    (leaving,) = set(before.tight).difference(after.tight)
    (entering,) = set(after.tight).difference(before.tight)
    return leaving, entering


TOWERS = [(4 * d, d) for d in (2, 4, 6, 8)] + [(32, 4), (48, 6)]


@pytest.mark.parametrize("n, d", TOWERS, ids=[f"n{n}-d{d}" for n, d in TOWERS])
def test_hot_path_matches_reference_at_every_vertex(n, d):
    ext = build(ConstructionParams(n=n, d=d))
    poly = ext.poly
    for t in range(ext.params.vertex_count):
        v = vertex_for_t(ext, t)
        assert polytope.slacks(poly, v) == reference_slacks(poly, v), t
        assert polytope.tight_set(poly, v) == reference_tight_set(poly, v), t
        point = polytope.scaled_point(poly, v)
        assert fraction_coords(point) == v and point.tight == reference_tight_set(poly, v), t
        assert list(polytope.edge_directions(poly, point)) == reference_edge_directions(poly, v), t
        assert polytope.is_simple_vertex(poly, v) and reference_is_simple_vertex(poly, v), t


# A square: x <= 1 and 2x <= 2 are the same facet, so the point (1, 1/2)
# has exactly d = 2 tight rows and they are parallel.
PARALLEL = polytope.HPolytope(((1, 0), (2, 0), (0, 1), (-1, 0), (0, -1)), (1, 2, 1, 0, 0))


def test_is_simple_vertex_rejects_rank_deficient_tight_rows():
    point = (Fraction(1), Fraction(1, 2))
    assert polytope.tight_set(PARALLEL, point) == (0, 1)
    assert reference_rank([PARALLEL.A[0], PARALLEL.A[1]]) == 1
    assert polytope.is_simple_vertex(PARALLEL, point) is False
    assert polytope.is_simple_vertex(PARALLEL, (Fraction(0), Fraction(0))) is True


def test_is_simple_vertex_rejects_infeasible_point():
    with pytest.raises(NotFeasible):
        polytope.is_simple_vertex(PARALLEL, (Fraction(2), Fraction(0)))


ENTRIES = st.integers(-3, 3) | st.integers(-(2**80), 2**80) | st.fractions(max_denominator=10**9)


@st.composite
def rational_matrices(draw, square=False):
    """m x n products of an m x r and an r x n matrix of small, wide-int and Fraction
    entries, so the rank is at most r, with some rows and columns then zeroed."""
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    left = draw(st.lists(st.lists(ENTRIES, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return tuple(
        tuple(
            0 if i in zero_rows or j in zero_cols else sum(map(mul, left[i], [c[j] for c in right]))
            for j in range(n)
        )
        for i in range(m)
    )


@given(rational_matrices())
@example(((0, 1, 2), (0, 3, 4), (0, 5, 6)))  # no pivot in column 0: skipped, rank 2
@example(((0, 0, 0, 1), (0, 0, 0, Fraction(1, 2))))  # wide, rank 1 from the last column
@example(((1,), (2,), (Fraction(-3, 7),)))  # tall, rank 1
@settings(max_examples=200, deadline=None)
def test_rank_matches_reference_rank(rows):
    assert exactla.rank(rows) == reference_rank(rows)


@given(rational_matrices(square=True))
@example(((0, 1, 2), (0, 3, 4), (0, 5, 6)))
@example(((1, 2, 3), (2, 4, 7), (3, 6, 10)))  # column 1 loses its pivot, column 2 has one
@settings(max_examples=200, deadline=None)
def test_full_rank_tests_match_reference_rank(rows):
    # is_nonsingular and the inverse's None decide rank == n on the integer rows, also where the
    # forward pass skips a column and finds a later pivot.
    ints = [exactla.common_denominator(row)[0] for row in rows]
    full = reference_rank(rows) == len(rows)
    assert exactla.is_nonsingular(ints) is full
    assert (exactla.int_inverse_scaled(ints) is not None) is full



# ---------------------------------------------------------------------------
# The runner with a Fraction iterate


def reference_value(f, x):
    quad = sum(x[i] * exactla.dot(row, x) for i, row in enumerate(f.quad))
    return quad + exactla.dot(f.linear, x) + f.constant


def reference_gradient(f, x):
    return tuple(2 * exactla.dot(row, x) + a for row, a in zip(f.quad, f.linear))


def reference_gradient_at(f, nums, denom):
    """grad f at nums/denom as (integer numerators G, scale S D), grad f = G/(S D).

    G = 2 S quad X + D S linear is a positive multiple of the gradient, so it
    prices edges with the right signs; ``walk`` forms only its curved rows and
    gives the edge it follows the slope (G . dir, S D).
    """
    scale, rows, linear, _ = f._cleared
    grad = [denom * a for a in linear]
    for i, cols, entries in rows:
        grad[i] += 2 * sum(map(mul, entries, map(nums.__getitem__, cols)))
    return tuple(grad), scale * denom


def reference_slope(f, nums, denom, direction):
    """The slope (G . dir, S D) of f along ``direction`` at nums/denom, from ``reference_gradient_at``."""
    numerators, scale = reference_gradient_at(f, nums, denom)
    return sum(map(mul, numerators, direction)), scale


def reference_ratio_test(poly, x, direction):
    best, blockers = None, []
    for i, (s, row) in enumerate(zip(reference_slacks(poly, x), poly._int_rows)):
        adv = exactla.dot(row[0], direction)
        if adv <= 0:
            continue
        ratio = s / adv
        if best is None or ratio < best:
            best, blockers = ratio, [i]
        elif ratio == best:
            blockers.append(i)
    return best, tuple(blockers)


def reference_line_search(f, x, direction, mu_max):
    g0 = exactla.dot(reference_gradient(f, x), direction)
    if g0 <= 0:
        raise NotImproving(f"directional derivative {g0} is not positive")
    curvature = sum(direction[i] * exactla.dot(row, direction) for i, row in enumerate(f.quad))
    stationary = None if curvature >= 0 else -g0 / (2 * curvature)
    if mu_max is None and stationary is None:
        raise UnboundedImprovement("improving ray is unbounded")
    candidates = [m for m in (mu_max, stationary) if m is not None]
    return min(candidates)


def as_pair(value):
    """A Fraction as the pair (numerator, denominator) a ``TraceStep`` carries."""
    return value.numerator, value.denominator


def by_value(trace):
    """A trace with each step's mu and f pair read as a Fraction: the runner's pairs are not
    reduced, so two traces compare by value, step by step."""
    steps = [
        step._replace(mu=step.mu and Fraction(*step.mu), f_value=Fraction(*step.f_value))
        for step in trace.steps
    ]
    return steps, trace.edge_moves, trace.terminated


def reference_active_set_run(poly, f, x0, rule, max_iter):
    """The active-set loop over Fraction points, with every check of the runner."""
    if f.dim != poly.dim:
        raise DimensionMismatch("objective dimension differs from polytope")
    x = exactla.vec(x0)
    if any(s < 0 for s in reference_slacks(poly, x)):
        raise NotAVertex("start point is not feasible")
    tight = reference_tight_set(poly, x)
    if len(tight) != poly.dim:
        raise NotAVertex(f"start point has {len(tight)} tight rows, need {poly.dim}")
    steps = []
    edge_moves = 0
    f_value = reference_value(f, x)
    while True:
        if len(tight) != poly.dim:
            raise NotAVertex(f"iterate has {len(tight)} tight rows, need {poly.dim}")
        gradient = reference_gradient(f, x)
        improving = [
            (facet, d)
            for facet, d in reference_edge_directions(poly, x)
            if exactla.dot(gradient, d) > 0
        ]
        if not improving or edge_moves >= max_iter:
            steps.append(TraceStep(*exactla.common_denominator(x), tight, None, None, as_pair(f_value)))
            terminated = "MaxIterations" if improving else "Optimal"
            break
        chosen = rule.choose_direction(improving, x)
        if chosen not in improving:
            raise UnknownRule("pivot rule returned a direction not offered")
        _, direction = chosen
        mu_max, _ = reference_ratio_test(poly, x, direction)
        mu = reference_line_search(f, x, direction, mu_max)
        if not mu > 0:
            raise InternalMismatch("a feasible improving edge must allow mu > 0")
        steps.append(
            TraceStep(*exactla.common_denominator(x), tight, direction, as_pair(mu), as_pair(f_value))
        )
        x = tuple(a + mu * e for a, e in zip(x, direction))
        if any(s < 0 for s in reference_slacks(poly, x)):
            raise NotFeasible("point is outside the polytope")
        tight = reference_tight_set(poly, x)
        if len(tight) > poly.dim:
            raise DegenerateVertex(f"blocking tie leaves {len(tight)} tight rows at the new point")
        edge_moves += 1
        new_value = reference_value(f, x)
        if not new_value > f_value:
            raise InternalMismatch("objective must strictly increase on a move")
        f_value = new_value
    return Trace(steps=tuple(steps), edge_moves=edge_moves, terminated=terminated)


RULES = ("first", "last", "random", "adversarial")


@pytest.mark.parametrize("n, d", TOWERS, ids=[f"n{n}-d{d}" for n, d in TOWERS])
def test_runner_trace_matches_reference_on_towers(n, d):
    ext = build(ConstructionParams(n=n, d=d))
    f = pullback_objective(ext)
    start, cap = vertex_for_t(ext, 0), 4 * ext.params.vertex_count
    for name in RULES:
        trace = active_set_run(ext.poly, f, start, make_rule(name, 5), cap)
        reference = reference_active_set_run(ext.poly, f, start, make_rule(name, 5), cap)
        assert by_value(trace) == by_value(reference), name
        assert trace.terminated == "Optimal"
        assert trace.vertices_visited == ext.params.vertex_count


def test_runner_trace_matches_reference_with_max_iter():
    ext = build(ConstructionParams(n=24, d=6))
    f = pullback_objective(ext)
    start = vertex_for_t(ext, 0)
    trace = active_set_run(ext.poly, f, start, make_rule("first"), max_iter=17)
    reference = reference_active_set_run(ext.poly, f, start, make_rule("first"), max_iter=17)
    assert by_value(trace) == by_value(reference)
    assert trace.terminated == "MaxIterations" and trace.edge_moves == 17


# A cube cut by x1 + x2 + x3 <= 5/2 has vertices with two or three tight
# neighbours that improve a linear objective, so the rules take different
# paths; the rational cut puts halves into the iterates.
CUT_CUBE = HPolytope(
    A=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)),
    b=(1, 1, 1, 0, 0, 0, Fraction(5, 2)),
)
CUBE_OBJECTIVES = {
    "linear": QuadraticObjective(quad=((0,) * 3,) * 3, linear=(3, 2, 1)),
    "convex": QuadraticObjective(
        quad=((1, Fraction(1, 2), 0), (Fraction(1, 2), 1, 0), (0, 0, Fraction(1, 3))),
        linear=(Fraction(-1, 7), 1, 2),
    ),
}


@pytest.mark.parametrize("objective", sorted(CUBE_OBJECTIVES))
@pytest.mark.parametrize("rule", RULES)
def test_runner_trace_matches_reference_on_cut_cube(objective, rule):
    f = CUBE_OBJECTIVES[objective]
    start = (0, 0, 0)
    trace = active_set_run(CUT_CUBE, f, start, make_rule(rule, 3), 64)
    assert by_value(trace) == by_value(reference_active_set_run(CUT_CUBE, f, start, make_rule(rule, 3), 64))
    assert trace.terminated == "Optimal" and trace.edge_moves >= 2


def test_runner_raises_like_reference_at_an_interior_stop():
    # Concave along x1: the line search stops halfway along the first edge,
    # which is no vertex, and both runners refuse the point.
    f = QuadraticObjective(quad=((-1, 0, 0), (0, 0, 0), (0, 0, 0)), linear=(1, 0, 0))
    for run in (active_set_run, reference_active_set_run):
        with pytest.raises(NotAVertex):
            run(CUT_CUBE, f, (0, 0, 0), make_rule("first"), 64)


def _checking_pivots(monkeypatch, record):
    """Patch edge_directions so every pivoted edge list is checked against elimination."""
    enumerate_edges = polytope.edge_directions

    def checked(poly, point, pivot=None):
        edges = enumerate_edges(poly, point, pivot)
        if pivot is not None:
            assert edges == enumerate_edges(poly, point)
            assert list(edges) == reference_edge_directions(poly, fraction_coords(point))
        record.append(pivot is not None)
        return edges

    monkeypatch.setattr(polytope, "edge_directions", checked)


@pytest.mark.parametrize("n, d", TOWERS, ids=[f"n{n}-d{d}" for n, d in TOWERS])
def test_pivoted_edges_match_elimination_on_every_walk(n, d, monkeypatch):
    # Both walkers pivot each vertex's edges from the last one's; at every
    # vertex, for every rule, the result must be the edges elimination gives.
    ext = build(ConstructionParams(n=n, d=d))
    f = pullback_objective(ext)
    start = vertex_for_t(ext, 0)
    pivoted = []
    _checking_pivots(monkeypatch, pivoted)
    for name in RULES:
        pivoted.clear()
        trace = active_set_run(ext.poly, f, start, make_rule(name, 5), 4 * ext.params.vertex_count)
        assert pivoted == [False] + [True] * trace.edge_moves, name
    pivoted.clear()
    certificate = monotone_path_check(ext, f)
    assert pivoted == [False] + [True] * (len(certificate.entries) - 1)


@pytest.mark.parametrize("objective", ["linear", "convex"])
def test_pivoted_edges_match_elimination_on_cut_cube(objective, monkeypatch):
    # Rational rows and walks that differ by rule.
    pivoted = []
    _checking_pivots(monkeypatch, pivoted)
    for name in RULES:
        pivoted.clear()
        trace = active_set_run(CUT_CUBE, CUBE_OBJECTIVES[objective], (0, 0, 0), make_rule(name, 3), 64)
        assert pivoted == [False] + [True] * trace.edge_moves, name


def _checking_fresh(monkeypatch, record):
    """Patch edge_directions so every edge list's ``fresh`` positions are checked.

    After elimination they are all d positions.  After a pivot they are
    exactly the positions whose facet is not in the previous list or whose
    direction differs from that facet's direction there, and they hold the
    entering row's position; every other position holds the previous
    list's facet and direction.
    """
    enumerate_edges = polytope.edge_directions

    def checked(poly, point, pivot=None):
        edges = enumerate_edges(poly, point, pivot)
        if pivot is None:
            assert edges.fresh == tuple(range(poly.dim))
        else:
            previous, *swap = pivot
            before = dict(previous)
            changed = [k for k, (facet, d) in enumerate(edges) if before.get(facet) != d]
            assert edges.fresh == tuple(changed)
            assert tuple(swap) == swap_between(previous, point)  # the walk's handed-over swap
            assert point.tight.index(swap[1]) in edges.fresh
        record.append(len(edges.fresh))
        return edges

    monkeypatch.setattr(polytope, "edge_directions", checked)


@pytest.mark.parametrize("n, d", TOWERS, ids=[f"n{n}-d{d}" for n, d in TOWERS])
def test_fresh_names_every_changed_edge_on_every_walk(n, d, monkeypatch):
    ext = build(ConstructionParams(n=n, d=d))
    f = pullback_objective(ext)
    start, fresh = vertex_for_t(ext, 0), []
    _checking_fresh(monkeypatch, fresh)
    for name in RULES:
        fresh.clear()
        trace = active_set_run(ext.poly, f, start, make_rule(name, 5), 4 * ext.params.vertex_count)
        assert len(fresh) == trace.vertices_visited == ext.params.vertex_count, name
    fresh.clear()
    certificate = monotone_path_check(ext, f)
    assert len(fresh) == len(certificate.entries)


@pytest.mark.parametrize("objective", ["linear", "convex"])
def test_fresh_names_every_changed_edge_on_cut_cube(objective, monkeypatch):
    fresh = []
    _checking_fresh(monkeypatch, fresh)
    for name in RULES:
        fresh.clear()
        trace = active_set_run(CUT_CUBE, CUBE_OBJECTIVES[objective], (0, 0, 0), make_rule(name, 3), 64)
        assert len(fresh) == trace.vertices_visited >= 3, name


def _checking_ratio_tests(monkeypatch, vertices):
    """At every vertex a walk enumerates edges at, compare ``ratio_test`` on every edge:
    mu_max and the lowest of the reference's blocking rows (None and None if unbounded)."""
    enumerate_edges = polytope.edge_directions

    def checked(poly, point, pivot=None):
        edges = enumerate_edges(poly, point, pivot)
        x = fraction_coords(point)
        for _, direction in edges:
            mu, blockers = reference_ratio_test(poly, x, direction)
            pair, row = polytope.ratio_test(poly, point, direction)
            # mu_max by value, and the lowest of the reference's blocking rows.
            assert (pair and Fraction(*pair), row) == (mu, min(blockers, default=None))
            assert mu is None or mu > 0 and pair[0] > 0 < pair[1]
            assert not set(blockers) & set(point.tight)
        vertices.append(point)
        return edges

    monkeypatch.setattr(polytope, "edge_directions", checked)


SMALL_TOWERS = [(n, d) for n, d in TOWERS if d <= 8]


@pytest.mark.parametrize("n, d", SMALL_TOWERS, ids=[f"n{n}-d{d}" for n, d in SMALL_TOWERS])
def test_ratio_test_matches_reference_on_every_edge_of_every_walk(n, d, monkeypatch):
    # ratio_test skips the tight rows; the reference reads every row.  Every
    # edge of every vertex the four rules visit is checked, not only the one
    # each rule follows.
    ext = build(ConstructionParams(n=n, d=d))
    f = pullback_objective(ext)
    start = vertex_for_t(ext, 0)
    visited = []
    _checking_ratio_tests(monkeypatch, visited)
    for name in RULES:
        visited.clear()
        trace = active_set_run(ext.poly, f, start, make_rule(name, 5), 4 * ext.params.vertex_count)
        assert len(visited) == trace.vertices_visited == ext.params.vertex_count, name


@pytest.mark.parametrize("objective", ["linear", "convex"])
def test_ratio_test_matches_reference_on_every_edge_of_the_cut_cube(objective, monkeypatch):
    visited = []
    _checking_ratio_tests(monkeypatch, visited)
    for name in RULES:
        visited.clear()
        trace = active_set_run(CUT_CUBE, CUBE_OBJECTIVES[objective], (0, 0, 0), make_rule(name, 3), 64)
        assert len(visited) == trace.vertices_visited, name


# ---------------------------------------------------------------------------
# Edge pricing: the walk's per-direction linear price against improving_edges


def improving_edges(edges, gradient):
    """The edges (leaving_facet, direction) along which the gradient rises (test-side
    reference for walk's O(d) pricing): ``gradient`` is any positive multiple of grad f at
    the vertex, such as ``reference_gradient_at``'s numerators, which keeps every sign."""
    return [(facet, d) for facet, d in edges if sum(map(mul, gradient, d)) > 0]


def offers_against_reference(poly, f, x0, rule, max_iter):
    """(vertices walked, vertices where the walk's improving list differs from the reference).

    The reference prices the edges elimination gives at the vertex with the
    full gradient, ``improving_edges(edges, reference_gradient_at(f, ...)[0])``.
    """
    visited = differing = 0
    for point, improving, _ in walk(poly, f, start_point(poly, f, x0), rule, max_iter):
        edges = polytope.edge_directions(poly, point)
        gradient, _ = reference_gradient_at(f, point.nums, point.denom)
        differing += improving != improving_edges(edges, gradient)
        visited += 1
    return visited, differing


@pytest.mark.parametrize("n, d", SMALL_TOWERS, ids=[f"n{n}-d{d}" for n, d in SMALL_TOWERS])
def test_walk_prices_every_vertex_like_improving_edges(n, d, monkeypatch):
    # Also counts the linear prices computed: only the fresh positions are
    # priced again, the rest keep their facet's entry, so fewer than d per vertex.
    ext = build(ConstructionParams(n=n, d=d))
    f, m_top, price, calls = pullback_objective(ext), ext.params.vertex_count, activeset._linear_price, []
    monkeypatch.setattr(activeset, "_linear_price", lambda *args: calls.append(1) or price(*args))
    for name in RULES:
        calls.clear()
        rule = make_rule(name, 5)
        assert offers_against_reference(ext.poly, f, vertex_for_t(ext, 0), rule, 4 * m_top) == (m_top, 0)
        assert d <= len(calls) < d * m_top, name


@pytest.mark.parametrize("objective", sorted(CUBE_OBJECTIVES))
def test_walk_prices_every_vertex_like_improving_edges_on_the_cut_cube(objective):
    # No curved row (linear) and three curved rows (convex).
    for name in RULES:
        visited, differing = offers_against_reference(
            CUT_CUBE, CUBE_OBJECTIVES[objective], (0, 0, 0), make_rule(name, 3), 64
        )
        assert visited >= 3 and differing == 0, name


def slopes_against_reference(poly, f, x0, rule, max_iter, monkeypatch):
    """(moves, moves where the slope ``walk`` hands ``line_search`` is not ``reference_slope``)."""
    search, handed = activeset.line_search, []

    def recording(f, direction, mu_max, slope):
        handed.append(slope)
        return search(f, direction, mu_max, slope)

    monkeypatch.setattr(activeset, "line_search", recording)
    moves = differing = 0
    for point, _, step in walk(poly, f, start_point(poly, f, x0), rule, max_iter):
        if step.direction is not None:  # line_search ran for this move before the record came
            differing += handed[moves] != reference_slope(f, point.nums, point.denom, step.direction)
            moves += 1
    assert len(handed) == moves
    return moves, differing


@pytest.mark.parametrize("n, d", SMALL_TOWERS, ids=[f"n{n}-d{d}" for n, d in SMALL_TOWERS])
def test_walk_hands_line_search_the_full_gradients_slope(n, d, monkeypatch):
    # The walk forms no gradient vector: the slope it hands over is the table's
    # linear price, checked afresh, plus the curved rows' terms.  At every move
    # it must be G . dir for the whole G = 2 S quad X + D S linear.
    ext = build(ConstructionParams(n=n, d=d))
    f, m_top = pullback_objective(ext), ext.params.vertex_count
    for name in RULES:
        rule = make_rule(name, 5)
        moves = slopes_against_reference(ext.poly, f, vertex_for_t(ext, 0), rule, 4 * m_top, monkeypatch)
        assert moves == (m_top - 1, 0), name


@pytest.mark.parametrize("objective", sorted(CUBE_OBJECTIVES))
def test_walk_hands_line_search_the_full_gradients_slope_on_the_cut_cube(objective, monkeypatch):
    for name in RULES:
        moves, differing = slopes_against_reference(
            CUT_CUBE, CUBE_OBJECTIVES[objective], (0, 0, 0), make_rule(name, 3), 64, monkeypatch
        )
        assert moves >= 2 and differing == 0, name


def test_a_corrupted_cached_linear_price_changes_the_offer_or_raises(monkeypatch):
    # The start vertex's prices are right; every edge priced after it is
    # kept negated in the per-facet table, and the walk reuses it at later vertices.
    ext = build(ConstructionParams(n=16, d=4))
    f, price, calls = pullback_objective(ext), activeset._linear_price, []

    def corrupted(linear, direction):
        calls.append(direction)
        return price(linear, direction) * (1 if len(calls) <= 4 else -1)

    monkeypatch.setattr(activeset, "_linear_price", corrupted)
    try:
        _, differing = offers_against_reference(
            ext.poly, f, vertex_for_t(ext, 0), make_rule("first"), 64
        )
    except (NotImproving, InternalMismatch, NotAVertex, UnboundedImprovement):
        differing = "raised"
    assert len(calls) > 4 and differing


# ---------------------------------------------------------------------------
# The direct trace writer


def trace_to_json_dict(trace, instance=None, t_values=None):
    """JSON form of a trace, steps labelled by ``t_values``; rationals stay ``p/q``."""
    steps = []
    for step, t in zip(trace.steps, t_values or [None] * len(trace.steps)):
        steps.append(
            {
                "t": t,
                "vertex": [str(c) for c in fraction_coords(step)],
                "active": list(step.tight),
                "direction": list(step.direction) if step.direction is not None else None,
                "mu": str(Fraction(*step.mu)) if step.mu is not None else None,
                "f": str(Fraction(*step.f_value)),
            }
        )
    return {
        "instance": instance,
        "steps": steps,
        "edge_moves": trace.edge_moves,
        "loop_iterations": trace.edge_moves,
        "terminated": trace.terminated,
    }


def test_trace_writer_matches_json_dumps():
    ext = build(ConstructionParams(n=16, d=4))
    f = pullback_objective(ext)
    start = vertex_for_t(ext, 0)
    full = active_set_run(ext.poly, f, start, make_rule("first"), 64)
    capped = active_set_run(ext.poly, f, start, make_rule("first"), max_iter=3)
    phis = [functional_value(ext.phi, fraction_coords(step)) for step in full.steps]
    on_grid = [grid_index(ext, phi) for phi in phis]
    instance = {"n": 16, "d": 4, "M": 16, "c": "9/10", "note": 'quote " and \\ slash'}
    off_grid = [None if t % 3 == 1 else t for t in on_grid]
    cube = active_set_run(CUT_CUBE, CUBE_OBJECTIVES["convex"], (0, 0, 0), make_rule("last"), 64)
    # Each step is written with the template for its own shape: one, three
    # and four tight rows in one trace.
    shapes = (
        TraceStep((1, -2, 0), 3, (0,), (1, 0, -1), (1, 2), (1, 3)),
        TraceStep((5, -2, -1), 6, (0, 4, 7), (0, 2, 1), (3, 1), (5, 6)),
        TraceStep((11, 4, 5), 6, (1, 2, 10, 11), None, None, (-7, 2)),
    )
    cases = [
        (full, instance, on_grid),
        (capped, instance, on_grid[:4]),
        (full, None, on_grid),
        (full, {}, [None] * len(full.steps)),
        (full, instance, off_grid),
        (Trace(steps=(), edge_moves=0, terminated="Optimal"), None, []),
        (cube, None, [None] * len(cube.steps)),
        (Trace(steps=shapes, edge_moves=2, terminated="Optimal"), instance, [None, 1, 2]),
    ]
    for trace, inst, t_values in cases:
        expected = json.dumps(trace_to_json_dict(trace, inst, t_values), indent=2)
        assert trace_to_json(trace, inst, t_values) == expected
    assert capped.terminated == "MaxIterations"
    assert '"t": null' in trace_to_json(full, instance, off_grid)


# ---------------------------------------------------------------------------
# The writers' integer state against the Fraction vertex


def reference_to_decimal(value, significant_digits=12):
    """A rational as a decimal string, in a local context set to the precision."""
    with localcontext() as ctx:
        ctx.prec = significant_digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


def check_integer_outputs(ext, trace):
    """Every t label, vertex text and plot row of the trace, against the Fraction references."""
    phis = [ext.phi.scaled_at(step.nums, step.denom) for step in trace.steps]
    labels = [grid_index(ext, *phi) for phi in phis]
    doc = json.loads(trace_to_json(trace, None, labels))
    rows = trace_plot_rows(trace, ext, phis)
    for k, step in enumerate(trace.steps):
        x = fraction_coords(step)
        assert exactla.common_denominator(x) == (step.nums, step.denom)
        phi, phi_prime = functional_value(ext.phi, x), functional_value(ext.phi_prime, x)
        assert Fraction(*phis[k]) == phi
        assert Fraction(*ext.phi_prime.scaled_at(step.nums, step.denom)) == phi_prime
        t = grid_index(ext, phi)
        assert labels[k] == doc["steps"][k]["t"] == t
        assert doc["steps"][k]["vertex"] == [str(c) for c in x]
        expected_row = (
            "" if t is None else str(t),
            reference_to_decimal(phi),
            reference_to_decimal(phi_prime),
            reference_to_decimal(Fraction(*step.f_value)),
        )
        assert rows[k] == expected_row, k
    return labels


@pytest.mark.parametrize("n, d", TOWERS, ids=[f"n{n}-d{d}" for n, d in TOWERS])
def test_writers_match_fraction_references_on_towers(n, d):
    ext = build(ConstructionParams(n=n, d=d))
    f = pullback_objective(ext)
    start = vertex_for_t(ext, 0)
    for name in RULES:
        trace = active_set_run(ext.poly, f, start, make_rule(name, 5), 4 * ext.params.vertex_count)
        labels = check_integer_outputs(ext, trace)
        assert labels == list(range(ext.params.vertex_count)), name


def test_writers_match_fraction_references_on_a_capped_run():
    ext = build(ConstructionParams(n=24, d=6))
    f = pullback_objective(ext)
    trace = active_set_run(ext.poly, f, vertex_for_t(ext, 0), make_rule("first"), max_iter=5)
    assert trace.terminated == "MaxIterations"
    assert check_integer_outputs(ext, trace) == list(range(6))


def entrywise_map_back(direction, scales, mu):
    """A twin step's x-direction and step, reduced entry by entry: dir_i/s_i = p_i/q_i in lowest
    terms, Q = lcm(q), the direction p_i (Q/q_i) and the step mu/Q."""
    reduced = [(a // g, s // g) for a, s in zip(direction, scales) for g in [gcd(a, s)]]
    wide = lcm(*[q for _, q in reduced])
    return [p * (wide // q) for p, q in reduced], Fraction(mu[0], mu[1] * wide)


@given(
    st.lists(
        st.tuples(st.integers(-(10**6), 10**6) | st.integers(-(2**70), 2**70), st.integers(1, 10**7)),
        min_size=1,
        max_size=8,
    ).filter(lambda entries: any(a for a, _ in entries)),
    st.tuples(st.integers(1, 10**12), st.integers(1, 10**12)),
)
@example([(3, 2), (-6, 4)], (1, 1))  # dir/s = (3/2, -3/2)
@example([(0, 7), (5, 1), (0, 9)], (4, 6))
@settings(max_examples=300, deadline=None)
def test_the_writers_direction_map_is_the_entrywise_reduced_one(entries, mu):
    # The writer maps a twin step back by lifting dir by L/s_i for L = lcm(s),
    # dividing by the lift's content and writing mu content/L.  That must be
    # the map reduced entry by entry, which is primitive with no gcd taken
    # (a prime dividing Q divides neither p_i nor Q/q_i where q_i has its full
    # power, and one that does not divides every p_i only if it divides every
    # dir_i), a positive multiple of dir/s, at the same point x + mu dir/s.
    raw, scales = zip(*entries)
    content = gcd(*raw)
    direction = tuple(a // content for a in raw)
    moved = TraceStep((0,) * len(scales), 1, (0,), direction, mu, (0, 1))
    last = TraceStep((0,) * len(scales), 1, (0,), None, None, (0, 1))
    doc = json.loads("[" + activeset._steps_json([moved, last], [None, None], scales) + "]")
    expected, step = entrywise_map_back(direction, scales, mu)
    assert gcd(*expected) == 1 and step > 0
    moves = [Fraction(mu[0] * a, mu[1] * s) for a, s in zip(direction, scales)]
    assert [step * e for e in expected] == moves  # the same displacement mu dir/s
    assert doc[0]["direction"] == expected
    assert doc[0]["mu"] == str(step)
