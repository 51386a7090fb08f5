"""Deformed products: both representations, the state interpolation and the duality verifier."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extparab import exactla, polygons
from extparab.deformed import Functional, dp_hrep, dp_verify, dp_vrep, extend
from extparab.errors import DimensionMismatch, InternalMismatch, SizeMismatch
from extparab.extension import (
    ConstructionParams,
    build,
    level_functional,
    stage_polytope,
    stage_vertices,
)
from extparab.polytope import HPolytope
from test_hotpath_oracle import fraction_coords, functional_value, x_state

state = exactla.common_denominator  # a point's lowest-terms integer state


def states(points):
    return [state(p) for p in points]


def reference_dp_vrep(p_verts, phi, v_verts, w_verts):
    """The Fraction product map that the integer states replaced, kept as the oracle:
    (p, v_j + phi(p) (w_j - v_j)) with three Fraction operations per tail coordinate."""
    if len(v_verts) != len(w_verts):
        raise SizeMismatch("fiber vertex lists differ in length")
    v_pts = [exactla.vec(v) for v in v_verts]
    w_pts = [exactla.vec(w) for w in w_verts]
    out = []
    for p in p_verts:
        p = exactla.vec(p)
        t = functional_value(phi, p)
        for v, w in zip(v_pts, w_pts):
            tail = tuple(a + t * (b - a) for a, b in zip(v, w))
            out.append(p + tail)
    return out


def segment() -> HPolytope:
    # [0, 1] in R^1
    return HPolytope(A=((1,), (-1,)), b=(1, 0))


def quadrilateral_hrep():
    verts = polygons.ParabolaVertexList((F(0), F(1, 3), F(2, 3), F(1)))
    return polygons.polygon_hrep(verts)


def test_undeformed_product_is_cartesian():
    rows, beta = quadrilateral_hrep()
    phi = Functional.coordinate(1, 0)
    product = dp_hrep(segment(), phi, rows, beta, beta)
    assert product.num_facets == 6
    assert product.dim == 3
    # deformation term vanishes: fiber rows have a zero x-part
    for row in product.A[2:]:
        assert row[0] == 0
    assert product.b[2:] == beta


def test_dp_hrep_row_count_segment_fiber():
    rows, beta = polygons.polygon_hrep(polygons.build_family(4, 4, "V"))
    rows_w, beta_prime = polygons.polygon_hrep(polygons.build_family(4, 4, "W"))
    assert rows == rows_w
    product = dp_hrep(segment(), Functional.coordinate(1, 0), rows, beta, beta_prime)
    assert product.num_facets == 2 + 4
    assert product.dim == 3


def test_dp_hrep_q4_row_count():
    ext = build(ConstructionParams(n=16, d=4))
    assert ext.poly.num_facets == 8  # 4 base rows + 4 fiber rows
    assert ext.poly.dim == 4


def test_dp_hrep_dimension_mismatch():
    rows, beta = quadrilateral_hrep()
    with pytest.raises(DimensionMismatch):
        dp_hrep(segment(), Functional.coordinate(2, 0), rows, beta, beta)


def test_dp_vrep_endpoints():
    v_pts = [(F(0), F(0)), (F(1), F(0))]
    w_pts = [(F(1, 3), F(-2, 9)), (F(2, 3), F(-2, 9))]
    p_verts = [(F(0),), (F(1),)]
    phi_zero = Functional((F(0),))
    out = dp_vrep(states(p_verts), phi_zero, v_pts, w_pts)
    assert out == states([p + v for p in p_verts for v in v_pts])

    # phi == 1 everywhere lands on the other fiber
    one = Functional((F(1),))
    out = dp_vrep([((1,), 1)], one, v_pts, w_pts)
    assert out == states([(F(1),) + w for w in w_pts])


def test_dp_vrep_interpolates():
    # With phi(p) = 1 the tail is w exactly; matches the t = 4 vertex of the
    # d = 4 tower whose fiber pair is (v_{0,1}, w_{0,1}) of the (4, 4) family.
    fam_v = polygons.build_family(4, 4, "V")
    fam_w = polygons.build_family(4, 4, "W")
    phi = Functional.coordinate(2, 0)
    p = (F(1), F(0))
    out = dp_vrep([state(p)], phi, fam_v.points, fam_w.points)
    assert out[1] == state(p + polygons.h(F(4, 15)))


def test_dp_vrep_size_mismatch():
    with pytest.raises(SizeMismatch):
        dp_vrep([((0,), 1)], Functional((F(1),)), [(0, 0)], [(0, 0), (1, 0)])


def test_dp_vrep_refuses_fiber_pairs_of_different_dims():
    # v and w of one pair must have the same length: the pair is cleared as
    # one integer vector and split in halves, so a longer w would be cut.
    with pytest.raises(DimensionMismatch, match="fiber pair 0"):
        dp_vrep([((0,), 1)], Functional((1,)), [(0, 0)], [(0, 0, 5)])
    with pytest.raises(DimensionMismatch, match="fiber pair 1"):
        dp_vrep([((0,), 1)], Functional((1,)), [(0, 0), (1, 2, 3)], [(0, 0), (1, 2)])


@pytest.mark.parametrize("n, d", [(16, 4), (48, 6), (32, 8), (40, 10)])
def test_product_map_matches_the_fraction_reference(n, d):
    # Every stage of the product map, base included, mapped back from the twin's
    # coordinates y = s * x, is the lowest-terms state of the Fraction reference
    # chained from the base grid, and each product vertex begins with its inner
    # vertex's coordinates.
    ext = build(ConstructionParams(n=n, d=d))
    expected = list(ext.base_vertices.points)
    assert [x_state(ext, p) for p in stage_vertices(ext, 2)] == states(expected)
    for level in ext.levels:
        dim, pairs = level.source_dim + 2, len(level.fiber_start.points)
        inner = stage_vertices(ext, dim - 2)
        expected = reference_dp_vrep(
            expected, level_functional(dim - 2), level.fiber_start.points, level.fiber_end.points
        )
        points = stage_vertices(ext, dim)
        assert [x_state(ext, p) for p in points] == states(expected)
        assert len(points) == ext.params.level_m(dim)
        for k, point in enumerate(points):
            assert fraction_coords(point)[: dim - 2] == fraction_coords(inner[k // pairs])


RATIONALS = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=10**6))


@st.composite
def product_inputs(draw):
    dim, fiber_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    point = st.lists(RATIONALS, min_size=dim, max_size=dim).map(tuple)
    fiber = st.lists(RATIONALS, min_size=fiber_dim, max_size=fiber_dim).map(tuple)
    pairs = draw(st.integers(1, 4))
    return (
        draw(st.lists(point, min_size=1, max_size=4)),
        Functional(tuple(draw(point))),
        draw(st.lists(fiber, min_size=pairs, max_size=pairs)),
        draw(st.lists(fiber, min_size=pairs, max_size=pairs)),
    )


@given(product_inputs())
@settings(max_examples=150, deadline=None)
def test_dp_vrep_matches_the_fraction_reference_on_any_rationals(case):
    # ints, negative and large-denominator Fractions, phi(p) of either sign.
    p_verts, *rest = case
    assert dp_vrep(states(p_verts), *rest) == states(reference_dp_vrep(*case))


WIDE = st.one_of(
    RATIONALS,
    st.integers(-(2**90), 2**90),
    st.fractions(min_value=-(2**80), max_value=2**80, max_denominator=2**70),
)


@st.composite
def extend_inputs(draw):
    """(point, v, w, sigma, k): sigma of either sign, 0 or 1, and the factor k > 0 that
    leaves the pair k sigma_num / k sigma_den unreduced, as scaled_at gives it."""
    dim, half = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    point = draw(st.lists(WIDE, min_size=dim, max_size=dim))
    v, w = (draw(st.lists(WIDE, min_size=half, max_size=half)) for _ in "vw")
    sigma = F(draw(st.one_of(st.sampled_from([0, 1]), WIDE)))
    return point, v, w, sigma, draw(st.sampled_from([1, 3, 2**64 + 1]))


@given(extend_inputs())
@settings(max_examples=300, deadline=None)
def test_extend_matches_fraction_arithmetic(case):
    # dp_verify tells points apart by equal states, so the result must be in
    # lowest terms: the same tuple as the Fraction point's cleared form.
    point, v, w, sigma, k = case
    out = extend(state(point), state((*v, *w)), k * sigma.numerator, k * sigma.denominator)
    nums, denom = out
    assert denom > 0 and gcd(denom, *nums) == 1
    expected = (*point, *(a + sigma * (b - a) for a, b in zip(v, w)))
    assert fraction_coords(out) == expected and out == state(expected)


def test_extend_refuses_an_inner_state_not_in_lowest_terms():
    # Only a lowest-terms inner state lets extend reduce the tail alone.
    fiber = state((1, 2, 3, 4))
    for inner in [((2, 4), 2), ((3, 6), 3), ((0, 0), 2), ((1, 2), 0), ((1, 2), -1)]:
        with pytest.raises(InternalMismatch, match="lowest terms"):
            extend(inner, fiber, 1, 3)


def test_extend_shares_the_inner_numerators_where_the_denominator_absorbs_the_tail():
    # Where the inner denominator D absorbs the tail's, or the tail's content
    # cancels what it adds, the result's leading entries are the inner state's
    # own int objects, past the small-int cache; the tail is still exact.
    big = (10**30 + 1, -(10**25 + 7))
    cases = [
        ((big, 30), ((1, 2, 3, 4), 5), 1, 3),  # tail denominator 15 divides D = 30
        ((big, 1), ((2, 4), 1), 1, 2),  # tail 6/2: its content 2 cancels k = 2
        ((big, 7), ((1, 2, 3, 4), 1), 0, 1),  # sigma = 0: the tail is V
    ]
    for inner, fiber, *sigma in cases:
        nums, denom = out = extend(inner, fiber, *sigma)
        assert denom == inner[1] and all(a is b for a, b in zip(nums, inner[0]))
        (pair, pair_denom), sig = fiber, F(*sigma)
        half = len(pair) // 2
        v, w = (tuple(F(a, pair_denom) for a in part) for part in (pair[:half], pair[half:]))
        expected = (*fraction_coords(inner), *(a + sig * (b - a) for a, b in zip(v, w)))
        assert fraction_coords(out) == expected and out == state(expected)


def test_dp_vrep_count_multiplies(monkeypatch):
    # m inner vertices times n fiber pairs, with phi evaluated once per inner vertex.
    fam_v = polygons.build_family(4, 4, "V")
    fam_w = polygons.build_family(4, 4, "W")
    base = [polygons.h(F(t, 3)) for t in range(4)]
    points, real_scaled_at = [], Functional.scaled_at

    def counting(g, nums, denom):
        points.append((nums, denom))
        return real_scaled_at(g, nums, denom)

    monkeypatch.setattr(Functional, "scaled_at", counting)
    out = dp_vrep(states(base), Functional.coordinate(2, 0), fam_v.points, fam_w.points)
    assert len(out) == len(base) * 4
    assert points == states(base)


def test_dp_verify_q4():
    ext = build(ConstructionParams(n=16, d=4))
    points = [x_state(ext, p) for p in stage_vertices(ext, 4)]
    report = dp_verify(ext.poly, points, expected_count=16)
    assert report.ok
    assert report.total == 16


def test_dp_verify_q6():
    ext = build(ConstructionParams(n=24, d=6))
    points = [x_state(ext, p) for p in stage_vertices(ext, 6)]
    assert ext.poly.num_facets == 12
    report = dp_verify(ext.poly, points, expected_count=64)
    assert report.ok


def test_dp_verify_flags_corruption():
    ext = build(ConstructionParams(n=16, d=4))
    points = stage_vertices(ext, 4)
    (first, *rest), denom = points[5]
    points[5] = (first + denom, *rest), denom  # coordinate 0 moved by +1
    report = dp_verify(ext.poly, points, expected_count=16)
    assert not report.ok
    assert 5 in report.infeasible or 5 in report.non_simple


def test_dp_verify_tells_infeasible_from_non_simple():
    # One slack evaluation per point gives both verdicts: outside, and
    # feasible but not a simple vertex (the midpoint of an edge).
    ext = build(ConstructionParams(n=16, d=4))
    points = [x_state(ext, p) for p in stage_vertices(ext, 4)]
    outside = state(tuple(2 * c - 1 for c in fraction_coords(points[3])))
    first, second = map(fraction_coords, points[:2])
    midpoint = state(tuple((a + b) / 2 for a, b in zip(first, second)))
    report = dp_verify(ext.poly, [*points, outside, midpoint], expected_count=18)
    assert report.infeasible == (16,) and report.non_simple == (17,)
    assert not report.ok


def test_functional_reads_only_its_nonzero_coefficients():
    # scaled_at reads the nonzero coefficients, cleared once to integers over
    # their lcm; the value at a state is that of the test-side dot product.
    phi = Functional((0, F(1, 3), 0, -2))
    assert phi._support == ((1, 3), (1, -6), 3)
    for x in ((5, F(3, 2), 7, F(1, 4)), (9, 3, 9, 0), (F(-1, 7), 0, 1, F(2, 5))):
        assert F(*phi.scaled_at(*state(x))) == functional_value(phi, x) == exactla.dot(phi.coeffs, x)
    assert phi.scaled_at((9, 3, 9, 0), 1) == (3, 3)
    # scaled_columns gives scaled_at's pairs at every point of the columns,
    # as a numerator list and a denominator list; the zero functional gives 0s.
    states = [state(x) for x in ((5, F(3, 2), 7, F(1, 4)), (9, 3, 9, 0), (F(-1, 7), 0, 1, F(2, 5)))]
    columns, denoms = list(zip(*[nums for nums, _ in states])), [q for _, q in states]
    for g in (phi, Functional((0, 0, 0, 0)), Functional((1, F(-2, 5), 3, F(1, 2)))):
        expected = [g.scaled_at(*s) for s in states]
        assert g.scaled_columns(columns, denoms) == tuple(map(list, zip(*expected)))
    assert phi.scaled_columns([(), (), (), ()], []) == ([], [])
    with pytest.raises(DimensionMismatch):
        functional_value(phi, (1, 2, 3))


def test_dp_verify_flags_duplicates():
    ext = build(ConstructionParams(n=16, d=4))
    points = stage_vertices(ext, 4)
    report = dp_verify(ext.poly, points + [points[0]], expected_count=16)
    assert not report.ok
    assert report.duplicate_pairs == ((0, 16),)


def test_dp_verify_rejects_float_coordinates():
    # A float numerator never reaches the slack kernel: the lowest-terms check
    # takes gcds, which refuse it.
    ext = build(ConstructionParams(n=16, d=4))
    points = stage_vertices(ext, 4)
    (_, *rest), denom = points[3]
    with pytest.raises(TypeError):
        dp_verify(ext.poly, [*points[:3], ((0.5, *rest), denom)], expected_count=16)


def test_dp_verify_refuses_states_not_in_lowest_terms():
    # Two states of one point would not be told apart as duplicates, so a
    # state that is not in lowest terms, or has no positive denominator, is refused.
    ext = build(ConstructionParams(n=16, d=4))
    points = stage_vertices(ext, 4)
    nums, denom = points[7]
    for bad in ((tuple(2 * a for a in nums), 2 * denom), (tuple(-a for a in nums), -denom)):
        with pytest.raises(InternalMismatch, match="^point 16 is not a state in lowest terms$"):
            dp_verify(ext.poly, [*points, bad], expected_count=17)


def test_dp_verify_tells_points_apart_by_value():
    # A point cleared from ints and Fractions has the map's state; each repeat
    # pairs with the first index, and a repeated infeasible point is named once.
    ext = build(ConstructionParams(n=16, d=4))
    points = [x_state(ext, p) for p in stage_vertices(ext, 4)]
    as_ints = state(tuple(int(c) if c.denominator == 1 else c for c in fraction_coords(points[2])))
    outside = state(tuple(2 * c - 1 for c in fraction_coords(points[3])))
    report = dp_verify(ext.poly, [*points, as_ints, outside, outside], expected_count=16)
    assert report.duplicate_pairs == ((2, 16), (17, 18))
    assert report.infeasible == (17,) and report.non_simple == ()
    assert report.total == 19 and not report.ok


def test_every_stage_passes_dp_verify():
    ext = build(ConstructionParams(n=24, d=6))
    for dim in (2, 4, 6):
        poly = stage_polytope(ext, dim)
        points = stage_vertices(ext, dim)
        expected = ext.params.level_m(dim)
        report = dp_verify(poly, points, expected_count=expected)
        assert report.ok, (dim, report)
        assert report.total == expected
