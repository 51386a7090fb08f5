"""The recursive tower: parameters, vertex map, projection, verification."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extparab import polygons
from extparab.activeset import pullback_objective
from extparab.errors import BadParameters, DimensionMismatch, InternalMismatch, OutOfRange
from extparab.exactla import common_denominator
from extparab.extension import (
    ConstructionParams,
    all_vertices,
    build,
    decompose_t,
    sidecar_json_dict,
    stage_vertices,
    state_for_t,
    verify_construction,
    vertex_for_t,
)
from extparab.lowerbound import monotone_path_check


def project(ext, x):
    """(phi(x), phi'(x)) of a Fraction point (test-side reference); on vertices it lands on
    the parabola grid."""
    if len(x) != ext.params.d:
        raise DimensionMismatch(f"point has dim {len(x)}, construction {ext.params.d}")
    return (ext.phi(x), ext.phi_prime(x))


def reference_vertex_at_dim(ext, dim, t):
    """The Fraction t-map that the integer states replaced, kept as the oracle."""
    if dim == 2:
        return polygons.h(F(t, ext.params.fiber_count - 1))
    level = ext.levels[(dim - 4) // 2]
    j, l, s = decompose_t(t, level.m_level, ext.params.fiber_count)
    inner = reference_vertex_at_dim(ext, dim - 2, s)
    sweep = F(s, level.m_level - 1)
    if inner[dim - 4] != sweep:
        raise InternalMismatch(f"inner vertex {s} misses sweep value {sweep}")
    v = level.fiber_start.points[2 * j + l]
    w = level.fiber_end.points[2 * j + l]
    return inner + tuple(a + sweep * (b - a) for a, b in zip(v, w))


def recompose_t(j, l, s, m_level):
    """Test-side inverse of decompose_t: t = (2l - 1)(4 j l m - 2 j m + 2 l m - l - s)."""
    return (2 * l - 1) * (4 * j * l * m_level - 2 * j * m_level + 2 * l * m_level - l - s)


@pytest.mark.parametrize(
    "n, d",
    [(16, 3), (12, 4), (8, 4), (24, 4), (10, 2), (16, 0)],
)
def test_params_rejected(n, d):
    # n = 24, d = 4 fails because n/(2d) = 3 is odd; n = 8, d = 4 because
    # n/(2d) = 1 < 2.
    with pytest.raises(BadParameters):
        ConstructionParams(n=n, d=d)


def test_params_accepted():
    p = ConstructionParams(n=16, d=4)
    assert p.fiber_count == 4
    assert p.facet_count == 8
    assert p.vertex_count == 16
    assert ConstructionParams(n=32, d=4).vertex_count == 64
    assert ConstructionParams(n=24, d=6).vertex_count == 64


def test_build_d4_phi_prime_weights():
    # ((M_2 - 1)/(M_4 - 1))^2 = (3/15)^2 = 1/25 on coordinate 2.
    ext = build(ConstructionParams(n=16, d=4))
    assert ext.phi.coeffs == (0, 0, 1, 0)
    assert ext.phi_prime.coeffs == (0, F(1, 25), 0, 1)


def test_build_d4_counts():
    ext = build(ConstructionParams(n=16, d=4))
    assert ext.poly.num_facets == 8
    assert ext.params.vertex_count == 16


def test_build_base_quadrilateral():
    # n = 8, d = 2: no deformed levels, the tower is the hull of h(t/3).
    ext = build(ConstructionParams(n=8, d=2))
    assert ext.poly.num_facets == 4
    assert ext.levels == ()
    assert ext.base_vertices.params == (F(0), F(1, 3), F(2, 3), F(1))
    assert [vertex_for_t(ext, t) for t in range(4)] == [
        polygons.h(F(t, 3)) for t in range(4)
    ]


def test_decompose_examples():
    assert decompose_t(7, 4, 4) == (0, 1, 0)
    assert decompose_t(4, 4, 4) == (0, 1, 3)
    assert decompose_t(0, 4, 4) == (0, 0, 0)


def test_decompose_range_checks():
    with pytest.raises(OutOfRange):
        decompose_t(-1, 4, 4)
    with pytest.raises(OutOfRange):
        decompose_t(16, 4, n_fiber=4)
    decompose_t(15, 4, n_fiber=4)  # boundary is fine


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=64),
    st.data(),
)
def test_decompose_recompose_bijection(half_n, m_level, data):
    n_fiber = 2 * half_n
    t = data.draw(st.integers(min_value=0, max_value=n_fiber * m_level - 1))
    j, l, s = decompose_t(t, m_level, n_fiber)
    assert 0 <= s <= m_level - 1
    assert 0 <= j <= half_n - 1
    assert l in (0, 1)
    assert recompose_t(j, l, s, m_level) == t


def test_decompose_is_injective_small():
    m_level, n_fiber = 4, 4
    triples = {decompose_t(t, m_level, n_fiber) for t in range(n_fiber * m_level)}
    assert len(triples) == n_fiber * m_level


def test_vertex_for_t_endpoints():
    ext = build(ConstructionParams(n=16, d=4))
    assert vertex_for_t(ext, 0) == (0, 0, 0, 0)
    # t = 15 decomposes to (j, l, s) = (1, 1, 0): inner vertex h(0), fiber
    # vertex v_{1,1} = h(1).
    assert vertex_for_t(ext, 15) == (0, 0, 1, 0)
    assert ext.phi(vertex_for_t(ext, 15)) == 1


def test_vertex_for_t_midpoint():
    # t = 4: s = 3 so the inner vertex is h(1); the sweep value 1 selects
    # the fiber endpoint w_{0,1} = h(4/15).
    ext = build(ConstructionParams(n=16, d=4))
    assert vertex_for_t(ext, 4) == (1, 0, F(4, 15), F(-44, 225))


def test_vertex_for_t_out_of_range():
    ext = build(ConstructionParams(n=16, d=4))
    with pytest.raises(OutOfRange):
        vertex_for_t(ext, 16)
    with pytest.raises(OutOfRange):
        vertex_for_t(ext, -1)


def test_vertex_for_t_sweep_check_catches_shifted_base_points(monkeypatch):
    # Base points off their grid values miss the sweep value of the first
    # deformed product, whose sweep coordinate is x_1.
    ext = build(ConstructionParams(n=24, d=6))
    real_h = polygons.h
    monkeypatch.setattr(polygons, "h", lambda x: real_h(x + F(1, 1000)))
    with pytest.raises(InternalMismatch, match="misses sweep value"):
        vertex_for_t(ext, 7)


def test_vertex_for_t_sweep_check_catches_misaligned_fibers():
    # With the first fiber family W at both ends, a dimension-4 vertex's x_3
    # no longer sweeps with its index, and the dimension-6 level notices.
    ext = build(ConstructionParams(n=24, d=6))
    first = dataclasses.replace(ext.levels[0], fiber_start=ext.levels[0].fiber_end)
    broken = dataclasses.replace(ext, levels=(first,) + ext.levels[1:])
    with pytest.raises(InternalMismatch, match="misses sweep value"):
        all_vertices(broken)


def test_a_replaced_tower_does_not_reuse_the_built_vertices():
    # The original tower's t-map has built and checked every vertex; the
    # misaligned copy made by dataclasses.replace starts with empty memos and
    # still fails its sweep check.
    ext = build(ConstructionParams(n=24, d=6))
    verts = all_vertices(ext)
    stage_vertices(ext, 6)
    first = dataclasses.replace(ext.levels[0], fiber_start=ext.levels[0].fiber_end)
    broken = dataclasses.replace(ext, levels=(first,) + ext.levels[1:])
    assert broken._vertices == {} and list(broken._stage_vertices) == [2]
    with pytest.raises(InternalMismatch, match="misses sweep value"):
        all_vertices(broken)
    assert stage_vertices(broken, 6) != stage_vertices(ext, 6)
    assert all_vertices(ext) == verts


def test_t_map_builds_each_vertex_once_per_tower(monkeypatch):
    # verify_construction, the path certificate's per-t vertex_for_t calls
    # and all_vertices share one t-map: at (48, 6) its 512 + 64 + 8 stage
    # vertices are each built once, so the base polygon's N = 8 points are
    # the only polygons.h calls (3 x 512 when each call rebuilt its vertex).
    ext = build(ConstructionParams(n=48, d=6))
    for level in ext.levels:  # the fibers' own h points, built once per family
        level.fiber_start.points, level.fiber_end.points
    real_h, taus = polygons.h, []
    monkeypatch.setattr(polygons, "h", lambda tau: taus.append(tau) or real_h(tau))
    assert verify_construction(ext).ok
    monotone_path_check(ext, pullback_objective(ext))
    verts = all_vertices(ext)
    assert sorted(taus) == [F(t, 7) for t in range(8)]
    assert len(ext._vertices) == 512 + 64 + 8
    assert [common_denominator(v) for v in verts] == [ext._vertices[6, t] for t in range(512)]


def test_one_vertex_builds_only_its_own_stages():
    # run's single vertex_for_t(ext, 0) builds vertex 0 and its inner stage
    # vertices, d/2 entries in all, never the M = 4,096 vertices of d = 12.
    ext = build(ConstructionParams(n=48, d=12))
    start = vertex_for_t(ext, 0)
    assert sorted(ext._vertices) == [(dim, 0) for dim in range(2, 13, 2)]
    state = ext._vertices[12, 0]
    assert state == common_denominator(start) and state_for_t(ext, 0) is state
    assert vertex_for_t(ext, 0) == start and len(ext._vertices) == 6
    assert "_stage_vertices" not in vars(ext)


@pytest.mark.parametrize("n, d", [(16, 4), (48, 6), (32, 8), (40, 10)])
def test_t_map_states_match_the_fraction_reference(n, d):
    # Every state the t-map builds, inner stages too, is the lowest-terms
    # integer form of the Fraction vertex, and vertex_for_t is that vertex.
    ext = build(ConstructionParams(n=n, d=d))
    for t in range(ext.params.vertex_count):
        vertex = reference_vertex_at_dim(ext, d, t)
        assert state_for_t(ext, t) == common_denominator(vertex)
        assert vertex_for_t(ext, t) == vertex
    assert len(ext._vertices) == sum(ext.params.level_m(dim) for dim in range(2, d + 1, 2))
    for (dim, t), state in ext._vertices.items():
        assert state == common_denominator(reference_vertex_at_dim(ext, dim, t))


def test_vertex_lists_are_fresh_for_each_caller():
    # Callers may mutate what they get (verify's injected vertex fault does);
    # a later call still returns the vertices as built.
    ext = build(ConstructionParams(n=16, d=4))
    verts, stage = all_vertices(ext), stage_vertices(ext, 4)
    expected_verts, expected_stage = list(verts), list(stage)
    assert all(type(v) is tuple for v in verts + stage)
    verts[0] = verts[1]
    verts.append(verts[2])
    stage.reverse()
    stage[0] = (F(1),) * 4
    assert all_vertices(ext) == expected_verts
    assert stage_vertices(ext, 4) == expected_stage
    assert stage_vertices(ext, 4) is not stage_vertices(ext, 4)


def test_project_on_grid():
    ext = build(ConstructionParams(n=16, d=4))
    m_top = ext.params.vertex_count
    for t in range(m_top):
        tau = F(t, m_top - 1)
        assert project(ext, vertex_for_t(ext, t)) == (tau, tau * tau - tau)


def test_project_zero_and_midpoint():
    ext = build(ConstructionParams(n=16, d=4))
    assert project(ext, (0, 0, 0, 0)) == (0, 0)
    assert project(ext, vertex_for_t(ext, 4)) == (F(4, 15), F(-44, 225))
    with pytest.raises(DimensionMismatch):
        project(ext, (0, 0))


def test_projection_grid_is_strictly_convex_shadow():
    # All vertices project to distinct parameters on a strictly convex
    # curve, so none can land in the interior of the shadow.
    ext = build(ConstructionParams(n=24, d=6))
    taus = [project(ext, v)[0] for v in all_vertices(ext)]
    assert len(set(taus)) == len(taus)
    assert sorted(taus) == [F(t, 63) for t in range(64)]


@pytest.mark.parametrize("n, d", [(16, 4), (32, 4), (24, 6), (8, 2), (32, 8)])
def test_verify_construction_passes(n, d):
    report = verify_construction(build(ConstructionParams(n=n, d=d)))
    assert report.ok, report.to_json_dict()


def test_verify_counts_d8():
    report = verify_construction(build(ConstructionParams(n=32, d=8)))
    facets = next(c for c in report.checks if c.name == "facet_count")
    assert facets.ok and "16 facets" in facets.detail
    vertices = next(c for c in report.checks if c.name == "vertices_simple")
    assert vertices.ok and "256 vertices" in vertices.detail


def test_verify_detects_corrupted_weight():
    ext = build(ConstructionParams(n=16, d=4))
    weights = list(ext.phi_prime.coeffs)
    weights[1] = F(1, 24)  # should be 1/25
    broken = dataclasses.replace(
        ext, phi_prime=dataclasses.replace(ext.phi_prime, coeffs=tuple(weights))
    )
    report = verify_construction(broken)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "projection_identity" in failed


def test_verify_names_bad_and_repeated_t_map_points():
    # Three bad t-map states: vertex 3 moved outside Q, vertex 7 replaced by
    # the midpoint of the edge to vertex 8, and vertex 11 an equal copy of
    # vertex 10, put in the tower's t-map memo.
    ext = build(ConstructionParams(n=16, d=4))
    v3, v7, v8, v10 = (vertex_for_t(ext, t) for t in (3, 7, 8, 10))
    ext._vertices[4, 3] = common_denominator((v3[0] + 5,) + v3[1:])
    ext._vertices[4, 7] = common_denominator([(a + b) / 2 for a, b in zip(v7, v8)])
    ext._vertices[4, 11] = common_denominator(v10)
    checks = {c.name: c for c in verify_construction(ext).checks}
    assert not checks["vertices_simple"].ok
    assert checks["vertices_simple"].detail == (
        "failures at [(3, 'infeasible'), (7, 'not a simple vertex')]"
    )
    assert not checks["t_map_bijective"].ok
    assert checks["t_map_bijective"].detail == "15 distinct vertices for 16 indices"


def test_verify_names_a_repeated_bad_point_once():
    # Vertex 9 repeats the infeasible vertex 4: the repeat is a duplicate
    # of index 4, not a second failure.
    ext = build(ConstructionParams(n=16, d=4))
    v4 = vertex_for_t(ext, 4)
    for t in (4, 9):
        ext._vertices[4, t] = common_denominator((v4[0] + 5,) + v4[1:])
    checks = {c.name: c for c in verify_construction(ext).checks}
    assert checks["vertices_simple"].detail == "failures at [(4, 'infeasible')]"
    assert not checks["t_map_bijective"].ok
    assert checks["t_map_bijective"].detail == "15 distinct vertices for 16 indices"


def test_t_map_faults_survive_optimize_flag():
    # Under python -O a moved and a repeated t-map state still fail
    # verify_construction, by explicit checks.
    code = (
        "from extparab.extension import ConstructionParams, build, state_for_t, verify_construction\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "nums, denom = state_for_t(ext, 3)\n"
        "ext._vertices[4, 3] = (nums[0] + 5 * denom,) + nums[1:], denom\n"
        "ext._vertices[4, 11] = state_for_t(ext, 10)\n"
        "for check in verify_construction(ext).checks:\n"
        "    print(check.ok, check.detail)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "False failures at [(3, 'infeasible')]" in lines
    assert "False 15 distinct vertices for 16 indices" in lines


def test_functional_norms_recorded():
    report = verify_construction(build(ConstructionParams(n=16, d=4)))
    assert report.norm_sq_phi == 1
    assert report.norm_sq_phi_prime == 1 + F(1, 25) ** 2


def test_stage_vertices_agree_with_t_map():
    # The product vertex enumeration and the integer-indexed map must
    # produce the same vertex set.
    ext = build(ConstructionParams(n=16, d=4))
    assert sorted(stage_vertices(ext, 4)) == sorted(all_vertices(ext))


def test_sidecar_json_shape():
    ext = build(ConstructionParams(n=16, d=4))
    doc = sidecar_json_dict(ext)
    assert doc["n"] == 16 and doc["d"] == 4 and doc["N"] == 4 and doc["M"] == 16
    assert doc["phi"] == ["0", "0", "1", "0"]
    assert doc["phi_prime"] == ["0", "1/25", "0", "1"]
    assert len(doc["levels"]) == 1
    level = doc["levels"][0]
    assert level["source_dim"] == 2 and level["m_level"] == 4
    assert len(level["b_rows"]) == 4
