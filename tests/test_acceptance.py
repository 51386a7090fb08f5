"""Acceptance suite: one test per criterion, all arithmetic exact.

Every check below runs at zero tolerance (the two runtime bounds are wall
clock).  Each test prints a single PASS/FAIL line, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
"""

import json
import time
from fractions import Fraction as F

import pytest

from extparab import deformed, lowerbound, polygons, polytope
from extparab.activeset import (
    QuadraticObjective,
    active_set_run,
    make_rule,
    pullback_objective,
)
from extparab.cli import main as cli_main
from extparab.errors import CertificateFailure
from extparab.extension import (
    ConstructionParams,
    build,
    stage_polytope,
    stage_vertices,
    verify_construction,
    vertex_for_t,
)
from test_hotpath_oracle import fraction_coords
from test_lowerbound import chord_inner_product

SCALING_DIMS = (4, 6, 8, 10, 12)


class criterion:
    """Context manager printing the PASS/FAIL line for one criterion."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\n[{verdict}] criterion {self.number}: {self.text}")
        return False


def test_criterion_1_headline_instance(tmp_path):
    with criterion(1, "d=4 build has 8 facets / 16 vertices; run visits all in <1s"):
        t0 = time.perf_counter()
        prefix = str(tmp_path / "q4")
        assert cli_main(["build", "--d", "4", "--out", prefix]) == 0
        run_prefix = str(tmp_path / "run4")
        assert cli_main(["run", "--d", "4", "--out", run_prefix]) == 0
        elapsed = time.perf_counter() - t0

        ine = (tmp_path / "q4.ine").read_text()
        assert "8 5 rational" in ine  # 2d = 8 facets
        ext_text = (tmp_path / "q4.ext").read_text()
        assert "16 5 rational" in ext_text  # 2^d = 16 vertices

        doc = json.loads((tmp_path / "run4.trace.json").read_text())
        assert doc["terminated"] == "Optimal"
        assert doc["edge_moves"] == 15
        assert [s["t"] for s in doc["steps"]] == list(range(16))
        vertices = [tuple(s["vertex"]) for s in doc["steps"]]
        assert len(set(vertices)) == 16
        for t, step in enumerate(doc["steps"]):
            assert F(step["f"]) == F(t, 150)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_exponential_scaling():
    with criterion(2, "vertices_visited = 2^d for d in 4..12; d=12 under 60s"):
        for d in SCALING_DIMS:
            ext = build(ConstructionParams(n=4 * d, d=d))
            f = pullback_objective(ext)
            t0 = time.perf_counter()
            trace = active_set_run(
                ext.poly, f, vertex_for_t(ext, 0), make_rule("first"), 4 * 2**d
            )
            elapsed = time.perf_counter() - t0
            assert trace.terminated == "Optimal"
            assert trace.vertices_visited == 2**d
            assert len({fraction_coords(step) for step in trace.steps}) == 2**d
            if d == 12:
                assert elapsed < 60.0, f"d=12 took {elapsed:.1f}s"


def test_criterion_3_pivot_rule_independence():
    with criterion(3, "first/last/random(10 seeds) traces bit-identical, d in 4..12"):
        for d in SCALING_DIMS:
            ext = build(ConstructionParams(n=4 * d, d=d))
            table = lowerbound.iteration_experiment(
                ext, pullback_objective(ext), ["first", "last", "random"], list(range(1, 11))
            )
            # iteration_experiment itself raises on any sequence deviation;
            # re-assert the counters here.
            assert len(table.rows) == 12
            assert all(r.vertices_visited == 2**d for r in table.rows)
            assert all(r.edge_moves == 2**d - 1 for r in table.rows)


def test_criterion_4_chord_scan():
    with criterion(4, "chord scans clean for M in {4, 16, 256, 4096}"):
        for m_count in (4, 16, 256, 4096):
            report = lowerbound.chord_scan(m_count)
            assert report.ok, report.violations[:3]
            # every (t, k) pair was checked closed-form vs direct dot (the
            # scan raises InternalMismatch on any disagreement); each of the
            # M grid points admits M-1 nonzero offsets
            assert report.pairs_checked == m_count * (m_count - 1)
        # spot-check the rational route agrees with the integer sweep
        for t, k in [(0, 1), (0, 2), (5, -1), (14, 1), (15, -15)]:
            value = chord_inner_product(16, t, k)
            assert (value > 0) == (k == 1)


@pytest.mark.parametrize("n, d", [(16, 4), (32, 4), (24, 6)])
def test_criterion_5_construction_verification_suite(n, d):
    with criterion(5, f"verify_construction passes all six checks for n={n}, d={d}"):
        report = verify_construction(build(ConstructionParams(n=n, d=d)))
        assert len(report.checks) == 6
        assert report.ok, report.to_json_dict()


@pytest.mark.parametrize("n, d", [(16, 4), (32, 4), (24, 6)])
def test_criterion_6_deformed_product_duality(n, d):
    with criterion(6, f"dp_verify passes at every level of n={n}, d={d}"):
        ext = build(ConstructionParams(n=n, d=d))
        fiber = ext.params.fiber_count
        for dim in range(4, d + 1, 2):
            poly = stage_polytope(ext, dim)
            points = stage_vertices(ext, dim)
            expected = ext.params.level_m(dim)
            assert len(points) == expected == len(stage_vertices(ext, dim - 2)) * fiber
            report = deformed.dp_verify(poly, points, expected_count=expected)
            assert report.ok, (dim, report.to_json_dict())


@pytest.mark.parametrize("n, d", [(16, 4), (32, 4), (24, 6), (32, 8)])
def test_criterion_7_normal_equivalence(n, d):
    with criterion(7, f"every fiber pair of n={n}, d={d} is normally equivalent"):
        ext = build(ConstructionParams(n=n, d=d))
        assert ext.levels, "builds with d >= 4 have at least one level"
        for level in ext.levels:
            assert polygons.check_normally_equivalent(
                level.fiber_start, level.fiber_end
            )


@pytest.mark.parametrize("d", [4, 6, 8])
def test_criterion_8_monotone_path_certificate(d):
    with criterion(8, f"monotone path certificate (1,...,1,0) for d={d}"):
        ext = build(ConstructionParams(n=4 * d, d=d))
        cert = lowerbound.monotone_path_check(ext, pullback_objective(ext))
        m_top = 2**d
        assert [e.improving_edges for e in cert.entries] == [1] * (m_top - 1) + [0]
        assert [e.successor_t for e in cert.entries] == list(range(1, m_top)) + [None]


def test_criterion_9_negative_controls(capsys):
    with criterion(9, "all three injected faults are detected with nonzero exit"):
        assert cli_main(["verify", "--d", "4", "--inject-fault", "phi-weight"]) == 1
        assert cli_main(["verify", "--d", "4", "--inject-fault", "vertex"]) == 1
        assert (
            cli_main(
                [
                    "report",
                    "--d",
                    "4",
                    "--rules",
                    "first",
                    "--seeds",
                    "1",
                    "--inject-fault",
                    "objective-c",
                ]
            )
            == 1
        )
        capsys.readouterr()
        # and the same faults are visible at library level
        ext = build(ConstructionParams(n=16, d=4))
        good = pullback_objective(ext)
        bad = QuadraticObjective(
            good.quad,
            tuple(-a - b for a, b in zip(ext.phi.coeffs, ext.phi_prime.coeffs)),
            good.constant,
        )
        with pytest.raises(CertificateFailure):
            lowerbound.monotone_path_check(ext, bad)
        points = stage_vertices(ext, 4)
        nums, denom = points[3]
        points[3] = (*nums[:2], nums[2] + denom, *nums[3:]), denom  # coordinate 2 moved by +1
        assert not deformed.dp_verify(ext.poly, points, expected_count=16).ok
