"""Chord scans, monotone-path certificates and iteration counting."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from extparab import activeset, exactla, extension, lowerbound, polytope
from extparab.activeset import QuadraticObjective, pullback_objective
from extparab.errors import (
    BadParameters,
    CertificateFailure,
    InternalMismatch,
    OutOfRange,
    ScanCapExceeded,
)
from extparab.extension import ConstructionParams, build, vertex_for_t
from extparab.lowerbound import chord_scan, iteration_experiment, monotone_path_check
from test_extension import project


def projected_vertex(m_count, t):
    """Grid vertex (1/(M-1)) (t, t^2/(M-1) - t) of the shadow polygon, M >= 2."""
    if m_count < 2:
        raise BadParameters(f"M must be at least 2, got {m_count}")
    if not 0 <= t <= m_count - 1:
        raise OutOfRange(f"t = {t} outside 0..{m_count - 1}")
    scale = F(1, m_count - 1)
    return (scale * t, scale * (F(t * t, m_count - 1) - t))


def shadow_gradient(m_count, point):
    """Gradient (2 x1 + (3/2)/(M-1) - 1, -1) of the shadow objective, M >= 2."""
    if m_count < 2:
        raise BadParameters(f"M must be at least 2, got {m_count}")
    x1 = exactla.rat(point[0])
    return (2 * x1 + F(3, 2) / (m_count - 1) - 1, F(-1))


def chord_inner_product(m_count, t, k):
    """Gradient-chord inner product at x(t) toward x(t+k), checked two ways.

    The plain rational reference for ``chord_scan``: computes the closed form
    k (3/2 - k)/(M-1)^2 and, independently, the dot product of the shadow
    gradient with the difference vector, and insists they agree before
    returning the value.
    """
    if k == 0:
        raise OutOfRange("k must be nonzero")
    if not 0 <= t <= m_count - 1 or not 0 <= t + k <= m_count - 1:
        raise OutOfRange(f"(t, k) = ({t}, {k}) outside the grid 0..{m_count - 1}")
    closed = F(k, (m_count - 1) ** 2) * (F(3, 2) - k)
    here = projected_vertex(m_count, t)
    there = projected_vertex(m_count, t + k)
    direct = exactla.dot(shadow_gradient(m_count, here), [a - b for a, b in zip(there, here)])
    if closed != direct:
        raise InternalMismatch(
            f"closed form {closed} != direct dot {direct} at (t, k) = ({t}, {k})"
        )
    return closed


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


@pytest.mark.parametrize("m_count", [1, 0, -3])
def test_projected_vertex_refuses_fewer_than_two_vertices(m_count):
    # M = 1 used to end in a bare ZeroDivisionError from 1/(M - 1).
    with pytest.raises(BadParameters, match=f"M must be at least 2, got {m_count}"):
        projected_vertex(m_count, 0)


@pytest.mark.parametrize("m_count", [1, 0, -3])
def test_shadow_gradient_refuses_fewer_than_two_vertices(m_count):
    with pytest.raises(BadParameters, match=f"M must be at least 2, got {m_count}"):
        shadow_gradient(m_count, (F(0), F(0)))


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


def closed_numerator(k, slope=3):
    return k * (slope - 2 * k)


def gradient_numerator(m_count, t, slope=3):
    return 4 * t + slope + 2 - 2 * m_count


def reference_chord_scan(m_count, closed=closed_numerator, gradient=gradient_numerator):
    """The per-pair chord scan that the packed rows replaced, kept as the oracle."""
    denom = 2 * (m_count - 1) ** 2
    pairs = 0
    violations = []
    for t in range(m_count):
        g_num = gradient(m_count, t)
        for k in range(-t, m_count - t):
            if k == 0:
                continue
            closed_num = closed(k)
            diff_y_num = k * (2 * t + k - m_count + 1)
            direct_num = g_num * k - 2 * diff_y_num
            if direct_num != closed_num:
                raise InternalMismatch(
                    f"numerators {closed_num} != {direct_num} at (t, k) = ({t}, {k})"
                )
            pairs += 1
            improving = closed_num > 0
            if improving != (k == 1):
                violations.append((t, k, F(closed_num, denom)))
    return lowerbound.ChordScanReport(m_count, pairs, tuple(violations))


def lane_width_steps(limit=lowerbound.SCAN_CAP_DEFAULT):
    """Every M <= limit whose lane width exceeds that of M - 1."""
    widths = [lowerbound._lane_layout(m)[3] for m in range(2, limit + 1)]
    return [m for m, prev, width in zip(range(3, limit + 1), widths, widths[1:]) if width > prev]


def test_packed_scan_matches_reference_for_small_m():
    for m_count in range(2, 131):
        assert chord_scan(m_count).to_json_dict() == reference_chord_scan(m_count).to_json_dict()


def test_lane_width_steps_up_inside_the_cap():
    steps = lane_width_steps()
    assert len(steps) >= 2
    for m in steps:
        assert lowerbound._lane_layout(m)[3] == lowerbound._lane_layout(m - 1)[3] + 1


@pytest.mark.parametrize("m_count", [m + j for m in lane_width_steps() for j in (-1, 0)])
def test_packed_scan_matches_reference_where_lane_width_steps(m_count):
    assert chord_scan(m_count).to_json_dict() == reference_chord_scan(m_count).to_json_dict()


def bumped_closed(k):
    # one closed-form numerator off by one: first met in row t = 5
    return closed_numerator(k) + (k == -5)


@pytest.mark.parametrize("m_count", [8, 64, 300])
def test_packed_scan_names_the_first_mismatched_pair(monkeypatch, m_count):
    with pytest.raises(InternalMismatch) as expected:
        reference_chord_scan(m_count, closed=bumped_closed)
    assert str(expected.value) == "numerators -64 != -65 at (t, k) = (5, -5)"
    monkeypatch.setattr(lowerbound, "_closed_numerator", bumped_closed)
    with pytest.raises(InternalMismatch) as got:
        chord_scan(m_count)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("m_count", [2, 3, 4, 7, 64, 200])
def test_packed_scan_reports_violations_like_reference(monkeypatch, m_count):
    # Slope constant 3 -> 5 in both forms: the chord k = 2 also improves.
    monkeypatch.setattr(lowerbound, "_closed_numerator", lambda k: closed_numerator(k, 5))
    monkeypatch.setattr(
        lowerbound, "_gradient_numerator", lambda m, t: gradient_numerator(m, t, 5)
    )
    report = chord_scan(m_count)
    expected = reference_chord_scan(
        m_count, lambda k: closed_numerator(k, 5), lambda m, t: gradient_numerator(m, t, 5)
    )
    assert report.violations == expected.violations
    assert report.to_json_dict() == expected.to_json_dict()
    assert [(t, k) for t, k, _ in report.violations] == [(t, 2) for t in range(m_count - 2)]


def test_packed_scan_checks_lane_bounds(monkeypatch):
    # A gradient outside the bound the lanes were sized for must be refused,
    # not compared: its lanes could carry into their neighbours.
    real = lowerbound._gradient_numerator
    monkeypatch.setattr(
        lowerbound, "_gradient_numerator", lambda m, t: real(m, t) + (1 << 40) * (t == 3)
    )
    with pytest.raises(InternalMismatch, match=r"^gradient \d+ at t = 3 exceeds its lane bound$"):
        chord_scan(16)


def test_packed_scan_controls_survive_optimize_flag():
    # The mismatch and lane-bound controls must still raise when python -O
    # strips asserts.
    code = (
        "from extparab import lowerbound\n"
        "from extparab.errors import InternalMismatch\n"
        "assert False, 'asserts must be stripped'\n"
        "closed, gradient = lowerbound._closed_numerator, lowerbound._gradient_numerator\n"
        "lowerbound._closed_numerator = lambda k: closed(k) + (k == -5)\n"
        "try:\n"
        "    lowerbound.chord_scan(64)\n"
        "except InternalMismatch as exc:\n"
        "    print(exc)\n"
        "lowerbound._closed_numerator = closed\n"
        "lowerbound._gradient_numerator = lambda m, t: gradient(m, t) + (1 << 40) * (t == 3)\n"
        "try:\n"
        "    lowerbound.chord_scan(64)\n"
        "except InternalMismatch as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "numerators -64 != -65 at (t, k) = (5, -5)",
        f"gradient {(1 << 40) - 111} at t = 3 exceeds its lane bound",
    ]


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
    # vertex fails the certificate at t = 4, as soon as the walk yields the
    # record of vertex 5: vertices 0..5 are priced, and none after them.
    ext = build(ConstructionParams(n=16, d=4))
    v = vertex_for_t(ext, 5)
    ext._vertices[4, 5] = exactla.common_denominator((v[0] + 1,) + v[1:])
    real_edge_directions = polytope.edge_directions
    priced = []

    def counted(*args):
        priced.append(args[1].tight)
        return real_edge_directions(*args)

    monkeypatch.setattr(polytope, "edge_directions", counted)
    with pytest.raises(CertificateFailure, match=r"^t = 4: improving edge does not reach vertex t \+ 1$"):
        monotone_path_check(ext, pullback_objective(ext))
    assert len(priced) == 6


def test_monotone_path_names_t0_for_a_start_outside_q(monkeypatch):
    # Vertex 0 moved outside Q fails the certificate at t = 0, like any
    # other vertex, and does not escape as NotFeasible.
    # The walk starts from the t-map's state in y = s * x, so x_0 + 5 is y_0 + 5 s_0.
    ext = build(ConstructionParams(n=8, d=2))
    real_state_for_t = extension.state_for_t

    def moved(ext, t):
        (first, *rest), denom = state = real_state_for_t(ext, t)
        return ((first + 5 * ext.scales[0] * denom, *rest), denom) if t == 0 else state

    monkeypatch.setattr(extension, "state_for_t", moved)
    with pytest.raises(CertificateFailure, match=r"^t = 0: "):
        monotone_path_check(ext, pullback_objective(ext))


def test_monotone_path_follows_the_runners_line_search(monkeypatch):
    # The certificate steps by the active-set method's own line search: a
    # step cut in half stops mid-edge, and the walk's tight-row check fails
    # on the edge leaving t = 0.
    ext = build(ConstructionParams(n=16, d=4))
    search = activeset.line_search

    def halved(num, den):
        return num, 2 * den
    monkeypatch.setattr(activeset, "line_search", lambda *args: halved(*search(*args)))
    with pytest.raises(CertificateFailure, match=r"^t = 0: iterate has 3 tight rows, need 4$"):
        monotone_path_check(ext, pullback_objective(ext))


def test_monotone_path_names_an_unbounded_edge(monkeypatch):
    # No facet blocks the improving edge at t = 3: the walk's line search
    # refuses the unbounded ray and the certificate names t = 3.
    ext = build(ConstructionParams(n=16, d=4))
    ratio_test, calls = polytope.ratio_test, []

    def unblocked(*args):
        calls.append(None)
        return (None, None) if len(calls) == 4 else ratio_test(*args)

    monkeypatch.setattr(polytope, "ratio_test", unblocked)
    with pytest.raises(CertificateFailure, match=r"^t = 3: improving edge is unbounded$"):
        monotone_path_check(ext, pullback_objective(ext))


def test_monotone_path_controls_survive_optimize_flag():
    # Under python -O the moved-vertex and corrupted-objective certificates
    # must still fail with their messages, by explicit raises.
    code = (
        "from extparab import extension, lowerbound\n"
        "from extparab.activeset import QuadraticObjective, pullback_objective\n"
        "from extparab.errors import CertificateFailure\n"
        "from extparab.extension import ConstructionParams, build\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "good = pullback_objective(ext)\n"
        "linear = tuple(-a - b for a, b in zip(ext.phi.coeffs, ext.phi_prime.coeffs))\n"
        "nums, denom = extension.state_for_t(ext, 5)\n"
        "moved = (nums[0] + denom,) + nums[1:], denom\n"
        "for f in (QuadraticObjective(good.quad, linear, good.constant), good):\n"
        "    try:\n"
        "        lowerbound.monotone_path_check(ext, f)\n"
        "    except CertificateFailure as exc:\n"
        "        print(exc)\n"
        "    ext._vertices[4, 5] = moved\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "t = 0: 0 improving edges, expected 1",
        "t = 4: improving edge does not reach vertex t + 1",
    ]


def experiment_instance(n, d):
    """The tower (n, d) and its objective, as ``cli report`` passes them."""
    ext = build(ConstructionParams(n=n, d=d))
    return ext, pullback_objective(ext)


def test_iteration_experiment_d4():
    table = iteration_experiment(*experiment_instance(16, 4), ["first", "last", "random"], [1, 2, 3])
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
        iteration_experiment(*experiment_instance(32, 4), ["first"], [])


def test_iteration_experiment_detects_corruption():
    ext = build(ConstructionParams(n=16, d=4))
    good = pullback_objective(ext)
    linear = tuple(-a - b for a, b in zip(ext.phi.coeffs, ext.phi_prime.coeffs))
    bad = QuadraticObjective(good.quad, linear, good.constant)
    with pytest.raises(CertificateFailure):
        iteration_experiment(ext, bad, ["first"], [])


def test_experiment_csv_columns():
    table = iteration_experiment(*experiment_instance(16, 4), ["first"], [])
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "rule,seed,vertices_visited,edge_moves,loop_iterations,wall_time_ms"
    assert lines[1].startswith("first,,16,15,15,")
