"""Chord scans, monotone-path certificates and iteration counting."""

from fractions import Fraction as F

import pytest

from extparab import extension, lowerbound
from extparab.activeset import QuadraticObjective, pullback_objective
from extparab.errors import BadParameters, CertificateFailure, OutOfRange, ScanCapExceeded
from extparab.extension import ConstructionParams, build, project, vertex_for_t
from extparab.lowerbound import (
    chord_inner_product,
    chord_scan,
    iteration_experiment,
    monotone_path_check,
    projected_vertex,
)


def test_projected_vertex_endpoints():
    assert projected_vertex(16, 0) == (0, 0)
    assert projected_vertex(16, 15) == (1, 0)
    assert projected_vertex(7, 6) == (1, 0)


def test_projected_vertex_matches_tower_projection():
    ext = build(ConstructionParams(n=16, d=4))
    assert projected_vertex(16, 4) == (F(4, 15), F(-44, 225))
    for t in range(16):
        assert projected_vertex(16, t) == project(ext, vertex_for_t(ext, t))


def test_projected_vertex_out_of_range():
    with pytest.raises(OutOfRange):
        projected_vertex(16, 16)


def test_chord_inner_product_values():
    assert chord_inner_product(16, 0, 1) == F(1, 450)
    assert chord_inner_product(16, 0, 2) == F(-1, 225)
    assert chord_inner_product(16, 5, -1) == F(-1, 90)


def test_chord_inner_product_range_checks():
    with pytest.raises(OutOfRange):
        chord_inner_product(16, 0, 0)
    with pytest.raises(OutOfRange):
        chord_inner_product(16, 10, 6)
    with pytest.raises(OutOfRange):
        chord_inner_product(16, 0, -1)


def test_chord_scan_m4_counts_all_pairs():
    report = chord_scan(4)
    assert report.pairs_checked == 12
    assert report.ok


@pytest.mark.parametrize("m_count", [4, 16, 256])
def test_chord_scan_no_violations(m_count):
    report = chord_scan(m_count)
    assert report.ok
    assert report.violations == ()


def test_chord_scan_agrees_with_rational_path():
    # The integer sweep and the plain rational computation must agree on
    # both value sign and pair admissibility.
    m_count = 64
    report = chord_scan(m_count)
    pairs = 0
    for t in range(m_count):
        for k in range(-t, m_count - t):
            if k == 0:
                continue
            value = chord_inner_product(m_count, t, k)
            pairs += 1
            assert (value > 0) == (k == 1)
    assert pairs == report.pairs_checked


def test_chord_scan_cap():
    with pytest.raises(ScanCapExceeded):
        chord_scan(100000)
    with pytest.raises(BadParameters):
        chord_scan(1)
    # explicit cap raise is allowed
    assert chord_scan(8, cap=None).ok


def test_monotone_path_d4():
    ext = build(ConstructionParams(n=16, d=4))
    cert = monotone_path_check(ext, pullback_objective(ext))
    assert [e.improving_edges for e in cert.entries] == [1] * 15 + [0]
    assert [e.successor_t for e in cert.entries] == list(range(1, 16)) + [None]


def test_monotone_path_d6():
    ext = build(ConstructionParams(n=24, d=6))
    f = pullback_objective(ext)
    cert = monotone_path_check(ext, f)
    assert cert.m_count == 64
    assert [e.improving_edges for e in cert.entries] == [1] * 63 + [0]
    assert [e.successor_t for e in cert.entries] == list(range(1, 64)) + [None]
    # objective along the path is linear in t: (1 - c) t/(M - 1) = 3t/(2 (M-1)^2)
    for t in range(64):
        assert f.value(vertex_for_t(ext, t)) == F(3 * t, 2 * 63**2)


def test_monotone_path_detects_corrupted_objective():
    # With the linear coefficient replaced by 1 the sole improving edge is
    # no longer unique (or vanishes), and the certificate must fail.
    ext = build(ConstructionParams(n=16, d=4))
    good = pullback_objective(ext)
    linear = tuple(-a - b for a, b in zip(ext.phi.coeffs, ext.phi_prime.coeffs))
    bad = QuadraticObjective(good.quad, linear, good.constant)
    with pytest.raises(CertificateFailure):
        monotone_path_check(ext, bad)


def test_monotone_path_detects_moved_vertex(monkeypatch):
    # The edge from t = 4 must land on the indexed vertex 5; moving that
    # vertex fails the certificate at t = 4, before vertex 5 is priced.
    ext = build(ConstructionParams(n=16, d=4))
    real_vertex_for_t = extension.vertex_for_t

    def moved(ext, t):
        v = real_vertex_for_t(ext, t)
        return (v[0] + 1,) + v[1:] if t == 5 else v

    monkeypatch.setattr(extension, "vertex_for_t", moved)
    with pytest.raises(CertificateFailure, match=r"^t = 4: improving edge does not reach vertex t \+ 1$"):
        monotone_path_check(ext, pullback_objective(ext))


def test_iteration_experiment_d4():
    table = iteration_experiment(16, 4, ["first", "last", "random"], [1, 2, 3])
    assert table.m_count == 16
    assert len(table.rows) == 2 + 3
    for row in table.rows:
        assert row.vertices_visited == 16
        assert row.edge_moves == 15
        assert row.loop_iterations == 15
    seeds = [r.seed for r in table.rows if r.rule == "random"]
    assert seeds == [1, 2, 3]


def test_iteration_experiment_requires_4d_regime():
    with pytest.raises(BadParameters):
        iteration_experiment(32, 4, ["first"], [])


def test_iteration_experiment_detects_corruption():
    ext = build(ConstructionParams(n=16, d=4))
    good = pullback_objective(ext)
    linear = tuple(-a - b for a, b in zip(ext.phi.coeffs, ext.phi_prime.coeffs))
    bad = QuadraticObjective(good.quad, linear, good.constant)
    with pytest.raises(CertificateFailure):
        iteration_experiment(16, 4, ["first"], [], ext=ext, f=bad)


def test_experiment_csv_columns():
    table = iteration_experiment(16, 4, ["first"], [])
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "rule,seed,vertices_visited,edge_moves,loop_iterations,wall_time_ms"
    assert lines[1].startswith("first,,16,15,15,")
