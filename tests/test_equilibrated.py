"""``polytope.equilibrated``: the gcd-equilibrated twin that ``run`` walks.

The twin is the same polytope in the coordinates y = s * x, so a walk on it
with the objective f(y / s) from s * x0 must be the walk on the polytope,
step for step, once each step is mapped back.  The property test feeds the
cut cube and the d <= 8 towers through random positive integer column and
row scalings.  It catches an equilibration that skips the row divisions
(a twin row keeps a content above 1) or leaves a column content out of the
scales (a twin column keeps it).
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extparab import activeset, polytope
from extparab.activeset import make_rule
from extparab.errors import NotFeasible
from extparab.extension import ConstructionParams, build, vertex_for_t
from extparab.polytope import HPolytope
from test_hotpath_oracle import CUBE_OBJECTIVES, CUT_CUBE, RULES, fraction_coords

SMALL_TOWERS = [(4 * d, d) for d in (2, 4, 6, 8)] + [(32, 4)]
CASES = ["cut-cube"] + [f"n{n}-d{d}" for n, d in SMALL_TOWERS]


def tower(case):
    n, d = (int(part[1:]) for part in case.split("-"))
    return build(ConstructionParams(n=n, d=d))


def case_polytope(case):
    """(polytope, feasible points to locate, a start vertex) of one named case."""
    if case == "cut-cube":
        grid = [Fraction(k, 2) for k in range(3)]
        cut = Fraction(5, 2)  # the cube's last row, x1 + x2 + x3 <= 5/2
        points = [(a, b, c) for a in grid for b in grid for c in grid if a + b + c <= cut]
        return CUT_CUBE, points, (0, 0, 0)
    ext = tower(case)
    m_top = ext.params.vertex_count
    points = [vertex_for_t(ext, t) for t in sorted({0, 1, m_top // 3, m_top // 2, m_top - 1})]
    return ext.poly, points, points[0]


def scaled_copy(poly, columns, rows):
    """{z : r_i (A_i * c) . z <= r_i b_i}: poly in coordinates z = x / c, rows times r_i."""
    a = tuple(tuple(r * e * c for e, c in zip(row, columns)) for row, r in zip(poly.A, rows))
    return HPolytope(a, tuple(r * b for b, r in zip(poly.b, rows)))


def twin_point(x, scales):
    return tuple(Fraction(a) * s for a, s in zip(x, scales))


def positive_multiples(u, v):
    """True iff u = lam v for one lam > 0 (u and v nonzero vectors of Fractions)."""
    k = next(i for i, e in enumerate(v) if e)
    lam = Fraction(u[k]) / v[k]
    return lam > 0 and all(a == lam * b for a, b in zip(u, v))


@st.composite
def scaled_cases(draw):
    case = draw(st.sampled_from(CASES))
    poly, points, _ = case_polytope(case)
    factors = st.integers(min_value=1, max_value=360)
    columns = draw(st.lists(factors, min_size=poly.dim, max_size=poly.dim))
    rows = draw(st.lists(factors, min_size=poly.num_facets, max_size=poly.num_facets))
    return poly, points, columns, rows


@given(scaled_cases())
@settings(max_examples=40, deadline=None)
def test_equilibrated_is_the_same_polytope_in_scaled_coordinates(case):
    poly, points, columns, rows = case
    given_poly = scaled_copy(poly, columns, rows)
    twin, scales = polytope.equilibrated(given_poly)
    assert all(type(s) is int and s > 0 for s in scales) and len(scales) == given_poly.dim
    # The twin's rows times the scales are the given rows, up to one positive factor per row.
    for (row, b), (twin_row, twin_b) in zip(given_poly._int_rows, twin._int_rows):
        assert positive_multiples((*map(int.__mul__, twin_row, scales), twin_b), (*row, b))
    assert all(type(e) is int for row, b in twin._int_rows for e in (*row, b))
    assert all(gcd(*row, b) == 1 for row, b in twin._int_rows)
    assert all(gcd(*column) == 1 for column in zip(*(row for row, _ in twin._int_rows)))
    assert polytope.equilibrated(twin) == (twin, (1,) * twin.dim)
    # The same tight rows at every feasible point, and a point outside stays outside.
    for x in points:
        z = tuple(Fraction(a) / c for a, c in zip(x, columns))
        assert polytope.tight_set(twin, twin_point(z, scales)) == polytope.tight_set(given_poly, z)
    outside = tuple(Fraction(a + 1) / c for a, c in zip(points[-1], columns))
    for p, point in ((given_poly, outside), (twin, twin_point(outside, scales))):
        with pytest.raises(NotFeasible):
            polytope.scaled_point(p, point)


def test_equilibrated_tower_vertices_are_small_integer_points():
    # The tower's scales clear its vertices' denominators down to 1 or 9.
    ext = build(ConstructionParams(n=32, d=8))
    twin, scales = polytope.equilibrated(ext.poly)
    assert scales == (2, 1, 40, 25, 672, 441, 10880, 7225)
    assert max(abs(e).bit_length() for row, _ in twin._int_rows for e in row) <= 4
    denominators = set()
    for t in range(ext.params.vertex_count):
        point = polytope.scaled_point(twin, twin_point(vertex_for_t(ext, t), scales))
        denominators.add(point.denom)
    assert denominators == {1, 9}


def walk_cases():
    for case in CASES:
        objectives = sorted(CUBE_OBJECTIVES) if case == "cut-cube" else ["pullback"]
        yield from ((case, objective, rule) for objective in objectives for rule in RULES)


@pytest.mark.parametrize("case, objective, rule", list(walk_cases()))
def test_walks_in_both_coordinates_agree_after_the_map_back(case, objective, rule):
    poly, _, x0 = case_polytope(case)
    if objective == "pullback":
        f = activeset.pullback_objective(tower(case))
    else:
        f = CUBE_OBJECTIVES[objective]
    twin, scales = polytope.equilibrated(poly)
    f_y = f.rescaled(scales)
    wide = lcm(*scales)
    walks = [
        list(activeset.walk(p, g, activeset.start_point(p, g, x), make_rule(rule, 7), 4096))
        for p, g, x in ((poly, f, x0), (twin, f_y, twin_point(x0, scales)))
    ]
    assert len(walks[0]) == len(walks[1]) >= 2
    for (point, improving, step), (point_y, improving_y, step_y) in zip(*walks):
        assert point_y.tight == point.tight and step_y.tight == step.tight
        assert [facet for facet, _ in improving_y] == [facet for facet, _ in improving]
        assert Fraction(*step_y.f_value) == Fraction(*step.f_value) == f_y.value(fraction_coords(step_y))
        x = [a / s for a, s in zip(fraction_coords(step_y), scales)]
        assert x == list(fraction_coords(step))
        if step.direction is None:
            assert step_y.direction is None and step_y.mu is None
            continue
        lifted = [a * (wide // s) for a, s in zip(step_y.direction, scales)]
        content = gcd(*lifted)
        assert [a // content for a in lifted] == list(step.direction)
        assert Fraction(*step_y.mu) * content / wide == Fraction(*step.mu)
