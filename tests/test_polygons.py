"""Parabola point map, vertex families, polygon facets, normal equivalence."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extparab import exactla, polygons
from extparab.errors import BadParameters, NotSorted, SizeMismatch
from extparab.polygons import ParabolaVertexList, build_family, h, polygon_hrep


def chord_slope(p, q):
    """Test-side slope of the chord from p to q (distinct first coordinates)."""
    return (q[1] - p[1]) / (q[0] - p[0])


def test_h_at_roots():
    assert h(0) == (F(0), F(0))
    assert h(1) == (F(1), F(0))


def test_h_fig_point():
    # 19/79 appears among the family parameters for (M, N) = (10, 8);
    # the second coordinate is direct substitution.
    assert h(F(19, 79)) == (F(19, 79), F(-1140, 6241))


def test_family_v_m10_n8():
    fam = build_family(10, 8, "V")
    assert fam.params == tuple(F(p, 79) for p in (0, 19, 20, 39, 40, 59, 60, 79))


def test_family_w_m10_n8():
    fam = build_family(10, 8, "W")
    assert fam.params == tuple(F(p, 79) for p in (9, 10, 29, 30, 49, 50, 69, 70))


def test_family_v_m4_n4():
    # j in {0, 1}, l in {0, 1} substituted into 2*4(j + l) - l over 15.
    fam = build_family(4, 4, "V")
    assert fam.params == (F(0), F(7, 15), F(8, 15), F(1))


@pytest.mark.parametrize("m, n", [(3, 4), (4, 3), (0, 4), (4, 0), (-2, 4)])
def test_family_rejects_bad_parameters(m, n):
    with pytest.raises(BadParameters):
        build_family(m, n, "V")


def test_family_rejects_bad_tag():
    with pytest.raises(BadParameters):
        build_family(4, 4, "X")


def test_union_has_2n_distinct_vertices():
    for m, n in [(4, 4), (10, 8), (2, 2), (16, 4)]:
        v = build_family(m, n, "V")
        w = build_family(m, n, "W")
        merged = polygons.merge_sorted(v, w)
        assert len(merged) == 2 * n  # all distinct on a strictly convex curve


def test_polygon_hrep_needs_three_vertices():
    with pytest.raises(BadParameters):
        polygon_hrep(ParabolaVertexList((F(0), F(1))))


def test_polygon_hrep_quadrilateral_rows():
    verts = ParabolaVertexList((F(0), F(1, 3), F(2, 3), F(1)))
    rows, rhs = polygon_hrep(verts)
    assert rows[0] == (F(-2, 3), F(-1))
    assert rhs[0] == 0
    # h(1/3) tight on the first row, h(2/3) strictly inside it
    assert exactla.dot(rows[0], h(F(1, 3))) == rhs[0]
    assert exactla.dot(rows[0], h(F(2, 3))) == F(-2, 9) < rhs[0]
    # closing chord: u2 <= 0, tight exactly at h(0) and h(1)
    assert rows[-1] == (F(0), F(1))
    assert rhs[-1] == 0


def test_polygon_hrep_each_vertex_tight_on_two_rows():
    verts = ParabolaVertexList((F(0), F(1, 3), F(2, 3), F(1)))
    rows, rhs = polygon_hrep(verts)
    for point in verts.points:
        residuals = [exactla.dot(row, point) - r for row, r in zip(rows, rhs)]
        assert all(v <= 0 for v in residuals)
        assert sum(1 for v in residuals if v == 0) == 2


def test_vertex_list_rejects_unsorted_parameters():
    with pytest.raises(NotSorted):
        ParabolaVertexList((F(1), F(1, 2), F(0)))


def test_vertex_list_rejects_out_of_range_parameter():
    with pytest.raises(BadParameters):
        ParabolaVertexList((F(0), F(3, 2)))


def test_vertex_list_compares_by_params_with_points_cached():
    a = build_family(4, 4, "V")
    b = ParabolaVertexList(a.params)
    points = a.points
    assert a.points is points  # built once
    assert "points" in vars(a) and "points" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert points == b.points == tuple(h(p) for p in a.params)
    assert a != build_family(4, 4, "W")
    assert [f.name for f in dataclasses.fields(a)] == ["params"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.points = ()


def test_canonical_rows_clear_denominators():
    # Rows compare as primitive integer normals, up to positive scaling.
    assert polygons._canonical_rows(((F(1, 3), F(-2, 9)), (F(-4), F(6)))) == ((3, -2), (-2, 3))


def test_normally_equivalent_m10_n8():
    assert polygons.check_normally_equivalent(
        build_family(10, 8, "V"), build_family(10, 8, "W")
    )


def test_normally_equivalent_m4_n4():
    # Oracle on slopes: slope(v00, v01) = 0 + 7/15 - 1 = slope(w00, w01)
    # = 3/15 + 4/15 - 1 = -8/15.
    v, w = build_family(4, 4, "V"), build_family(4, 4, "W")
    assert chord_slope(h(v.params[0]), h(v.params[1])) == F(-8, 15)
    assert chord_slope(h(w.params[0]), h(w.params[1])) == F(-8, 15)
    assert polygons.check_normally_equivalent(v, w)


def test_not_normally_equivalent_across_m():
    assert not polygons.check_normally_equivalent(
        build_family(10, 8, "V"), build_family(4, 8, "V")
    )


def test_normal_equivalence_size_mismatch():
    with pytest.raises(SizeMismatch):
        polygons.check_normally_equivalent(
            build_family(4, 4, "V"), build_family(4, 8, "W")
        )


def test_normal_equivalence_needs_four_vertices():
    with pytest.raises(BadParameters):
        polygons.check_normally_equivalent(
            build_family(2, 2, "V"), build_family(2, 2, "W")
        )


def test_shared_b_matrix_exactly():
    # Corresponding edges have equal parameter sums, so the raw constraint
    # rows coincide entry for entry and only the right-hand sides differ.
    for m, n in [(4, 4), (10, 8), (16, 4)]:
        rows_v, beta = polygon_hrep(build_family(m, n, "V"))
        rows_w, beta_prime = polygon_hrep(build_family(m, n, "W"))
        assert rows_v == rows_w
        assert beta != beta_prime


params = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@given(params, params)
def test_chord_slope_identity(x, y):
    if x == y:
        return
    assert chord_slope(h(x), h(y)) == x + y - 1
