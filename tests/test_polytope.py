"""Polytope membership, tight sets, edges, ratio tests and cdd round-trips."""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extparab import activeset, exactla, extension, lowerbound, polytope
from extparab.errors import (
    BadParameters,
    DegenerateVertex,
    DimensionMismatch,
    ExtparabError,
    FormatError,
    InternalMismatch,
    NotFeasible,
    ZeroDirection,
)
from extparab.deformed import dp_verify
from extparab.extension import (
    ConstructionParams,
    build,
    stage_polytope,
    stage_vertices,
    state_for_t,
    verify_construction,
    vertex_for_t,
)
from extparab.polytope import HPolytope
from test_hotpath_oracle import swap_between


def unit_square() -> HPolytope:
    return HPolytope(
        A=((1, 0), (-1, 0), (0, 1), (0, -1)),
        b=(1, 0, 1, 0),
    )


def quadrilateral() -> HPolytope:
    # Hull of h(t/3), t = 0..3, in canonical facet order (three lower
    # edges, then the closing chord).
    return HPolytope(
        A=((F(-2, 3), -1), (0, -1), (F(2, 3), -1), (0, 1)),
        b=(0, F(2, 9), F(2, 3), 0),
    )


def edges_at(poly, x):
    return polytope.edge_directions(poly, polytope.scaled_point(poly, x))


def ratio_with_blockers(poly, point, direction):
    """``ratio_test``'s mu_max pair, with the argmin set of blocking rows found here.

    ``ratio_test`` returns mu_max as a pair of positive ints and the lowest
    blocking row; this reference computes every ratio as a Fraction and
    checks both against their minimum.
    """
    pair, row = polytope.ratio_test(poly, point, direction)
    ratios = {}
    for i, (int_row, _) in enumerate(poly._int_rows):
        adv = sum(a * e for a, e in zip(int_row, direction))
        if adv > 0:
            ratios[i] = F(point.slacks[i], point.denom * adv)
    assert pair is None or (type(pair[0]) is type(pair[1]) is int and pair[0] > 0 < pair[1])
    mu = None if pair is None else F(*pair)
    assert mu == (min(ratios.values()) if ratios else None)
    blockers = tuple(i for i, ratio in ratios.items() if ratio == mu)
    assert row == (blockers[0] if blockers else None)
    return pair, blockers


def ratio_at(poly, x, direction):
    return ratio_with_blockers(poly, polytope.scaled_point(poly, x), direction)


def test_contains_interior():
    assert polytope.contains(unit_square(), (F(1, 2), F(1, 2)))


def test_contains_boundary():
    assert polytope.contains(unit_square(), (1, 0))


def test_contains_outside():
    assert not polytope.contains(unit_square(), (F(3, 2), 0))


def test_tight_set_interior_empty():
    assert polytope.tight_set(unit_square(), (F(1, 2), F(1, 2))) == ()


def test_tight_set_corner():
    assert polytope.tight_set(unit_square(), (0, 0)) == (1, 3)


def test_tight_set_edge():
    assert polytope.tight_set(unit_square(), (0, F(1, 2))) == (1,)


def test_tight_set_infeasible():
    with pytest.raises(NotFeasible):
        polytope.tight_set(unit_square(), (2, 0))


def test_simple_vertex_corner():
    assert polytope.is_simple_vertex(unit_square(), (0, 0))


def test_simple_vertex_edge_point():
    assert not polytope.is_simple_vertex(unit_square(), (F(1, 2), 0))


SQUARE_OBJECTIVE = activeset.QuadraticObjective(((1, 0), (0, 1)), (0, 0))


@pytest.mark.parametrize(
    "entry",
    [
        lambda x: polytope.contains(unit_square(), x),
        lambda x: polytope.slacks(unit_square(), x),
        lambda x: polytope.tight_set(unit_square(), x),
        lambda x: polytope.is_simple_vertex(unit_square(), x),
        lambda x: polytope.scaled_point(unit_square(), x),
        lambda x: activeset.start_point(unit_square(), SQUARE_OBJECTIVE, x),
        SQUARE_OBJECTIVE.value,
        SQUARE_OBJECTIVE.gradient,
    ],
    ids=[
        "contains",
        "slacks",
        "tight_set",
        "is_simple_vertex",
        "scaled_point",
        "start_point",
        "value",
        "gradient",
    ],
)
def test_float_coordinates_raise_type_error(entry):
    # Coordinates are coerced with exactla.vec, whose TypeError names the cause.
    with pytest.raises(TypeError, match="floats are not accepted"):
        entry((0.5, 0))


def test_edge_directions_unit_square():
    dirs = dict(edges_at(unit_square(), (0, 0)))
    assert set(dirs.values()) == {(1, 0), (0, 1)}
    dirs = dict(edges_at(unit_square(), (1, 1)))
    assert set(dirs.values()) == {(-1, 0), (0, -1)}


def test_edge_directions_quadrilateral():
    # Oracle: the two edges leaving h(0) head to h(1/3) and h(1), i.e. the
    # primitive vectors of h(1/3) - h(0) = (1/3, -2/9) and h(1) - h(0).
    dirs = dict(edges_at(quadrilateral(), (0, 0)))
    assert set(dirs.values()) == {(3, -2), (1, 0)}


def test_edge_directions_requires_vertex():
    with pytest.raises(DegenerateVertex):
        edges_at(unit_square(), (F(1, 2), 0))


def test_ratio_test_unit_square():
    mu, blockers = ratio_at(unit_square(), (0, 0), (1, 0))
    assert mu == (1, 1)
    assert blockers == (0,)


def test_ratio_test_quadrilateral():
    # Oracle: solving h(0) + mu (3, -2) against every facet stops first at
    # the edge through h(1/3) and h(2/3); indeed h(1/3) = (1/9) (3, -2).
    pair, blockers = ratio_at(quadrilateral(), (0, 0), (3, -2))
    mu = F(*pair)
    assert mu == F(1, 9)
    assert blockers == (1,)
    endpoint = (F(3) * mu, F(-2) * mu)
    assert endpoint == (F(1, 3), F(-2, 9))


def test_ratio_test_unbounded():
    cone = HPolytope(A=((0, 1),), b=(0,))
    mu, blockers = ratio_at(cone, (0, 0), (1, 0))
    assert mu is None
    assert blockers == ()


def test_ratio_test_zero_direction():
    with pytest.raises(ZeroDirection):
        ratio_at(unit_square(), (0, 0), (0, 0))


def test_step_feasibility_brackets_mu_max():
    poly = quadrilateral()
    x = (F(0), F(0))
    point = polytope.scaled_point(poly, x)
    for _, direction in polytope.edge_directions(poly, point):
        pair, _ = polytope.ratio_test(poly, point, direction)
        assert pair is not None and pair[0] > 0 < pair[1]
        mu = F(*pair)
        inside = tuple(a + mu * e for a, e in zip(x, direction))
        assert polytope.contains(poly, inside)
        beyond = tuple(a + 2 * mu * e for a, e in zip(x, direction))
        assert not polytope.contains(poly, beyond)
        far = tuple(a + (mu + 1) * e for a, e in zip(x, direction))
        assert not polytope.contains(poly, far)


def test_endpoint_tight_set_gains_blockers():
    poly = quadrilateral()
    x = (F(0), F(0))
    point = polytope.scaled_point(poly, x)
    tight = set(polytope.tight_set(poly, x))
    for leaving, direction in polytope.edge_directions(poly, point):
        pair, blockers = ratio_with_blockers(poly, point, direction)
        endpoint = tuple(a + F(*pair) * e for a, e in zip(x, direction))
        end_tight = set(polytope.tight_set(poly, endpoint))
        assert (tight - {leaving}) | set(blockers) <= end_tight


def test_edge_direction_tightness_pattern():
    # Each edge ray keeps exactly d-1 tight rows and strictly leaves one.
    poly = quadrilateral()
    x = (F(0), F(0))
    tight = polytope.tight_set(poly, x)
    for leaving, direction in edges_at(poly, x):
        products = {i: exactla.dot(poly.A[i], direction) for i in tight}
        assert products[leaving] < 0
        assert all(v == 0 for i, v in products.items() if i != leaving)


def test_edge_directions_pivot_around_the_quadrilateral():
    # Walking the quadrilateral's boundary, each vertex's edges pivoted from
    # the last vertex's equal the ones elimination gives; the edge back to
    # the vertex left is the one it arrived by, reversed.
    poly = quadrilateral()
    point = polytope.scaled_point(poly, (0, 0))
    edges = polytope.edge_directions(poly, point)
    for _ in range(4):
        leaving, direction = edges[0]
        mu, (blocker,) = ratio_with_blockers(poly, point, direction)
        point = polytope.locate(poly, *polytope.step(point, direction, mu))
        pivoted = polytope.edge_directions(poly, point, (edges, leaving, blocker))
        assert pivoted == polytope.edge_directions(poly, point)
        assert (blocker, tuple(-e for e in direction)) in pivoted
        edges = pivoted


def test_edge_directions_refuse_a_predecessor_off_by_more_than_one_row():
    ext = build(ConstructionParams(n=16, d=4))
    points = [polytope.scaled_point(ext.poly, vertex_for_t(ext, t)) for t in range(3)]
    edges = polytope.edge_directions(ext.poly, points[0])
    assert len(set(points[0].tight) ^ set(points[2].tight)) == 4
    (leaving, entering) = swap = swap_between(points[0], points[1])
    for point in (points[2], points[0]):  # two rows swapped; none swapped
        with pytest.raises(InternalMismatch, match=rf"with row {leaving} swapped for {entering}$"):
            polytope.edge_directions(ext.poly, point, (edges, *swap))
    assert polytope.edge_directions(ext.poly, points[1], (edges, *swap)) == polytope.edge_directions(
        ext.poly, points[1]
    )


# ---------------------------------------------------------------------------
# dp_verify decides each point once per polytope object


def counted_calls(monkeypatch, module, name) -> list:
    """The first arguments ``module.name`` is called with, from here on."""
    calls, real = [], getattr(module, name)

    def counted(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(module, name, counted)
    return calls


def verdicts_of(poly) -> dict:
    """dp_verify's verdict per point state kept on poly, as a plain dict."""
    return dict(poly._point_verdicts)


def counted_rank_decisions(monkeypatch) -> tuple[list, list]:
    """From here on, the rank decisions (parity-pass calls) and the exact passes among them."""
    return counted_calls(monkeypatch, exactla, "full_rank_mod2"), counted_calls(
        monkeypatch, exactla, "is_nonsingular"
    )


def test_verify_and_stage_checks_eliminate_each_tight_set_once(monkeypatch):
    # verify_construction checks the 512 top vertices of the tower's twin
    # ext.twin, and dp_verify the 8 and 64 vertices of stages 2 and 4, two other
    # polytopes.  On stage 6 it meets the same 512 vertices in the same ext.twin
    # again and reuses their verdicts: 584 locates and 584 rank decisions, not
    # 1,096 and 584.  The verdicts are keyed by the t-map's own state objects.
    # On the equilibrated twin every tight determinant is odd, so the parity
    # pass decides each set and the exact pass never runs.
    locates = counted_calls(monkeypatch, polytope, "locate")
    calls, exact = counted_rank_decisions(monkeypatch)
    ext = build(ConstructionParams(n=48, d=6))
    assert verify_construction(ext).ok and len(calls) == len(locates) == 512
    assert stage_polytope(ext, 6) is ext.twin
    for dim in (2, 4, 6):
        points = stage_vertices(ext, dim)
        assert dp_verify(stage_polytope(ext, dim), points, ext.params.level_m(dim)).ok
    assert len(calls) == len(locates) == 512 + 8 + 64
    assert len(exact) == 0
    assert len(ext.twin._point_verdicts) == 512
    assert set(verdicts_of(ext.twin).values()) == {"simple"}
    keys = {id(key) for key in ext.twin._point_verdicts}
    assert keys == {id(ext._vertices[6, t]) for t in range(512)}


def test_certify_path_hashes_no_fraction(monkeypatch):
    # Vertices are told apart by their integer state (polytope.cleared), so
    # the vertex-set checks of one tower never hash a Fraction.
    ext = build(ConstructionParams(n=48, d=6))
    hashes, real_hash = [], F.__hash__

    def counted(self):
        hashes.append(self)
        return real_hash(self)

    monkeypatch.setattr(F, "__hash__", counted)
    assert verify_construction(ext).ok
    for dim in (2, 4, 6):
        points = stage_vertices(ext, dim)
        assert dp_verify(stage_polytope(ext, dim), points, ext.params.level_m(dim)).ok
    assert len(hashes) == 0


def test_an_equal_polytope_built_separately_eliminates_again(monkeypatch):
    calls, _ = counted_rank_decisions(monkeypatch)
    # The t-map's states are in the twin's coordinates y = s * x.
    ext = build(ConstructionParams(n=16, d=4))
    vertex = state_for_t(ext, 3)
    assert dp_verify(ext.twin, [vertex], 1).ok and dp_verify(ext.twin, [vertex], 1).ok
    assert len(calls) == 1
    twin = HPolytope(ext.twin.A, ext.twin.b)
    assert twin == ext.twin and hash(twin) == hash(ext.twin)
    assert dp_verify(twin, [vertex], 1).ok
    assert len(calls) == 2
    assert verdicts_of(twin) == verdicts_of(ext.twin) == {vertex: "simple"}
    assert twin._point_verdicts is not ext.twin._point_verdicts


def test_a_rank_deficient_tight_set_stays_non_simple_on_repeat(monkeypatch):
    # x <= 1 and 2x <= 2 are both tight at (1, 1/2): d = 2 tight rows of rank 1.
    # Their parity masks are 0b01 and 0b00, so the exact pass decides the set.
    locates = counted_calls(monkeypatch, polytope, "locate")
    calls, exact = counted_rank_decisions(monkeypatch)
    parallel = HPolytope(((1, 0), (2, 0), (0, 1), (-1, 0), (0, -1)), (1, 2, 1, 0, 0))
    deficient, outside = ((2, 1), 2), ((4, 1), 2)  # (1, 1/2) and (2, 1/2)
    for _ in range(2):
        report = dp_verify(parallel, [deficient, deficient, outside], 2)
        assert report.duplicate_pairs == ((0, 1),)
        assert report.non_simple == (0,) and report.infeasible == (2,)
    assert len(locates) == 2 and len(calls) == len(exact) == 1
    assert verdicts_of(parallel) == {((2, 1), 2): "non_simple", ((4, 1), 2): "infeasible"}
    # A point with fewer than d tight rows never reaches a rank decision;
    # another tight pair is a new point, decided once, by parity alone.
    report = dp_verify(parallel, [((1, 0), 2), ((0, 0), 1)], 2)
    assert report.non_simple == (0,) and not report.infeasible
    assert len(locates) == 4 and len(calls) == 2 and len(exact) == 1
    assert verdicts_of(parallel)[(0, 0), 1] == "simple"


# ---------------------------------------------------------------------------
# Row kernels against a plain loop over each row's nonzeros


def plain_products(poly, x):
    """A_i . x for every integer row, by a loop over its (column, coefficient) nonzeros."""
    products = []
    for row, _ in poly._int_rows:
        total = 0
        for j, a in [(j, a) for j, a in enumerate(row) if a]:
            total += a * x[j]
        products.append(total)
    return products


def check_kernel(poly, x, denom):
    products = plain_products(poly, x)
    assert [row(x) for row in poly._rows] == products
    assert poly._slacks(x, denom) == [rhs * denom - p for (_, rhs), p in zip(poly._int_rows, products)]


# Entries: zeros (sparse rows), small and negative ones, past 64 bits, rationals.
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(2**200), 2**200),
    st.fractions(max_denominator=2**70),
)
BIG = 2**64 + 3


@st.composite
def polytopes_and_points(draw):
    dim = draw(st.integers(1, 7))
    row = st.lists(ENTRIES, min_size=dim, max_size=dim).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    rhs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    x = draw(st.lists(st.integers(-(2**100), 2**100), min_size=dim, max_size=dim))
    return HPolytope(tuple(map(tuple, rows)), tuple(rhs)), x, draw(st.integers(1, 2**80))


@given(polytopes_and_points())
@example((HPolytope(((3, -1, 4), (-1, -5, -9), (2, 6, 5)), (3, -5, 8)), [8, -9, 7], 3))  # dense
@example((HPolytope(((0, 0, -BIG), (BIG, 0, 0)), (0, -BIG)), [-BIG, 1, BIG], BIG))  # sparse, past 64 bits
@settings(max_examples=150, deadline=None)
def test_row_kernels_match_a_plain_loop(case):
    poly, x, denom = case
    check_kernel(poly, x, denom)
    readback = polytope.hrep_from_ine(polytope.hrep_to_ine(poly))
    assert readback == poly and readback._rows is not poly._rows
    assert readback._slacks is not poly._slacks
    check_kernel(readback, x, denom)


def test_row_kernels_compile_wide_rows_and_long_integers():
    # 5000 nonzeros in a row (a flat sum that deep exceeds the compiler's
    # nesting limit) and a coefficient of over 4300 decimal digits (past the
    # int-to-decimal limit); both must compile and agree with the plain loop.
    wide = tuple((-1) ** j * (j + 1) for j in range(5000))
    huge = 7**6000
    poly = HPolytope((wide, (huge,) + (0,) * 4999), (5, -huge))
    x = [j % 11 - 5 for j in range(5000)]
    check_kernel(poly, x, 3)


def test_row_kernels_compile_only_int_entries():
    # Anything in the integer rows other than an int, however it formats,
    # is refused before any source is built.
    class Loud(int):
        def __format__(self, spec):
            return "__import__('os')"

    for bad in ("1", 1.0, F(1, 2), Loud(1)):
        poly = HPolytope(((1, 2), (3, 4)), (5, 6))
        poly.__dict__["_int_rows"] = (((1, bad), 5), ((3, 4), 6))
        for kernel in ("_slacks", "_rows"):
            with pytest.raises(InternalMismatch, match="int entries only"):
                getattr(poly, kernel)


def test_certify_compiles_row_functions_only_for_the_walked_polytope(monkeypatch):
    # One certify op on the (48, 6) tower: every stage locates points, so each
    # stage polytope compiles its slack function; only the top polytope, the
    # twin the path certificate walks, compiles row functions, and only once.
    # The tower's own rows, which the .ine file writes, compile neither.
    compiled, real_terms = [], polytope._terms
    monkeypatch.setattr(polytope, "_terms", lambda poly: compiled.append(poly) or real_terms(poly))
    params = ConstructionParams(n=48, d=6)
    ext = build(params)
    f = activeset.pullback_objective(ext)
    assert verify_construction(ext).ok
    for dim in (2, 4, 6):
        points = stage_vertices(ext, dim)
        assert dp_verify(stage_polytope(ext, dim), points, params.level_m(dim)).ok
    assert lowerbound.monotone_path_check(ext, f).m_count == params.vertex_count
    polytope.hrep_from_ine(polytope.hrep_to_ine(ext.poly))
    polytope.vrep_to_ext(extension.all_vertices(ext))
    for dim in (2, 4):
        kernels = vars(stage_polytope(ext, dim))
        assert "_slacks" in kernels and "_rows" not in kernels
    kernels = vars(ext.twin)
    assert "_slacks" in kernels and "_rows" in kernels
    assert "_slacks" not in vars(ext.poly) and "_rows" not in vars(ext.poly)
    stages = [stage_polytope(ext, dim) for dim in (2, 4, 6)]
    assert sorted(map(stages.index, compiled)) == [0, 1, 2, 2]
    rows = ext.twin._rows
    assert type(rows) is tuple and len(rows) == ext.twin.num_facets
    assert all(type(row).__name__ == "function" for row in (*rows, ext.twin._slacks))
    lowerbound.monotone_path_check(ext, f)  # a second walk compiles nothing
    assert len(compiled) == 4 and ext.twin._rows is rows


def test_all_zero_row_rejected():
    with pytest.raises(BadParameters):
        HPolytope(A=((0, 0),), b=(1,))


def test_equality_and_hash_follow_a_and_b():
    # The (48, 6) tower read back from its .ine text, as the certify
    # benchmark checks it, equals the built one and hashes like it.
    poly = build(ConstructionParams(n=48, d=6)).poly
    again = polytope.hrep_from_ine(polytope.hrep_to_ine(poly))
    assert again is not poly and again == poly and hash(again) == hash(poly)
    # int entries are the Fractions they equal; another b is another polytope.
    ints = HPolytope(A=((1, 0), (0, 1)), b=(1, 1))
    fracs = HPolytope(A=((F(1), F(0)), (F(0), F(1))), b=(F(1), F(1)))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints != HPolytope(A=((1, 0), (0, 1)), b=(1, 2))


def test_ine_round_trip_is_bit_identical():
    poly = quadrilateral()
    text = polytope.hrep_to_ine(poly)
    again = polytope.hrep_from_ine(text)
    assert again == poly
    assert again.A == poly.A and again.b == poly.b


def test_ine_format_shape():
    text = polytope.hrep_to_ine(unit_square())
    lines = text.strip().splitlines()
    assert lines[0] == "H-representation"
    assert lines[1] == "begin"
    assert lines[2] == "4 3 rational"
    assert lines[3].split() == ["1", "-1", "0"]
    assert lines[-1] == "end"


def test_ine_parse_rejects_garbage():
    with pytest.raises(FormatError):
        polytope.hrep_from_ine("not a polytope file")


@pytest.mark.parametrize(
    "text",
    [
        "H-representation\nbegin\n4 3 rational\n1 -1 0\n0 1 0\n",
        "H-representation\nbegin\nx y rational\n1 -1 0\nend\n",
        "H-representation\nbegin\n1 2 rational\n1 abc\nend\n",
        "H-representation\nbegin\n",
        "H-representation\nbegin\n0 3 rational\nend\n",
        # with m < 0 the 'end' line would be looked for before 'begin'
        "H-representation\nend\nbegin\n-3 3 rational\n",
        "H-representation\nbegin\n1 1 rational\n1\nend\n",
        "H-representation\nbegin\n1 3 rational\n1 0 0\nend\n",
        "H-representation\nbegin\n+1 3 rational\n1 -1 0\nend\n",
        # cdd's equality rows, which a parser that skipped the line would read as inequalities
        "H-representation\nlinearity 1 1\nbegin\n1 2 rational\n1 1\nend\n",
    ],
    ids=[
        "truncated-body",
        "size-line",
        "entry",
        "ends-after-begin",
        "zero-rows",
        "negative-rows",
        "one-column",
        "all-zero-row",
        "signed-size",
        "linearity",
    ],
)
def test_ine_parse_rejects_malformed(text):
    with pytest.raises(FormatError):
        polytope.hrep_from_ine(text)


# Tokens Fraction() would take, or nearly: hrep_to_ine writes none of them.
# Exponents stay small here; a huge one is what the strict forms keep out.
NOT_INE_NUMBERS = [
    "1e5", "1E5", "0.5", ".5", "1_0", "+1", "inf", "nan", "0x10", "\u0661", "1/2/3", "1/"
]


@pytest.mark.parametrize("token", NOT_INE_NUMBERS)
def test_ine_parse_accepts_only_integers_and_p_over_q(token):
    text = f"H-representation\nbegin\n1 3 rational\n{token} 1 0\nend\n"
    with pytest.raises(FormatError, match=rf"^malformed number {re.escape(repr(token))}"):
        polytope.hrep_from_ine(text)
    poly = polytope.hrep_from_ine("H-representation\nbegin\n1 3 rational\n-7/2 1 0\nend\n")
    assert poly.b == (F(-7, 2),) and poly.A == ((-1, 0),)


INE_TOKENS = st.sampled_from(
    ["0", "1", "-2", "3/4", "-5/6", "1/0", "H-representation", "begin", "end", "rational", "*"]
    + NOT_INE_NUMBERS
)
INE_LINES = st.lists(INE_TOKENS, max_size=4).map(" ".join) | st.sampled_from(
    ["H-representation", "begin", "end", "1 3 rational", "2 3 rational", "* comment"]
)


@st.composite
def ine_texts(draw):
    """Arbitrary text; lines of .ine words; or a well-formed frame around drawn entries."""
    kind = draw(st.sampled_from(["text", "lines", "frame"]))
    if kind == "text":
        return draw(st.text(max_size=200))
    if kind == "lines":
        return "\n".join(draw(st.lists(INE_LINES, max_size=8)))
    m, cols = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    rows = [" ".join(draw(st.lists(INE_TOKENS, min_size=cols, max_size=cols))) for _ in range(m)]
    return "\n".join(["H-representation", "begin", f"{m} {cols} rational", *rows, "end", ""])


@given(ine_texts())
@example("H-representation\nbegin\n1 3 rational\n1e5 1 0\nend\n")
@example("H-representation\nbegin\n1 3 rational\n1/2 1 0\nend\n")
@settings(max_examples=300, deadline=None)
def test_ine_parse_returns_a_polytope_or_an_extparab_error(text):
    try:
        poly = polytope.hrep_from_ine(text)
    except ExtparabError:
        return
    assert isinstance(poly, HPolytope)
    assert polytope.hrep_from_ine(polytope.hrep_to_ine(poly)) == poly


def test_ine_parse_names_the_all_zero_row():
    text = "H-representation\nbegin\n2 3 rational\n1 -1 0\n1 0 0\nend\n"
    with pytest.raises(FormatError, match=r"^all-zero constraint row 1$"):
        polytope.hrep_from_ine(text)


def test_edge_pattern_check_survives_optimize_flag():
    # Under python -O a corrupted inverse (columns reversed, so each ray
    # leaves the wrong row) must still be caught by an explicit raise.
    code = (
        "from extparab import exactla, polytope\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "inverse = exactla.int_inverse_scaled\n"
        "exactla.int_inverse_scaled = lambda rows: inverse(rows)[::-1]\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "try:\n"
        "    polytope.edge_directions(ext.poly, polytope.scaled_point(ext.poly, vertex_for_t(ext, 0)))\n"
        "except InternalMismatch:\n"
        "    print('InternalMismatch')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "InternalMismatch"


def test_edge_pattern_checks_both_signs_under_optimize_flag():
    # Under python -O, two corruptions of the inverse that reversing the
    # columns does not model: negated columns keep every other tight row but
    # enter the facet each ray should leave (only the leaving-row test sees
    # it); column k + column k+1 leaves its own row but also a second one
    # (only the kept-row test sees it).
    code = (
        "from extparab import exactla, polytope\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "inverse = exactla.int_inverse_scaled\n"
        "def negated(rows):\n"
        "    return [[-c for c in col] for col in inverse(rows)]\n"
        "def paired(rows):\n"
        "    cols = inverse(rows)\n"
        "    return [[a + b for a, b in zip(c, cols[(k + 1) % len(cols)])] for k, c in enumerate(cols)]\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "point = polytope.scaled_point(ext.poly, vertex_for_t(ext, 5))\n"
        "for corrupt in (negated, paired):\n"
        "    exactla.int_inverse_scaled = corrupt\n"
        "    try:\n"
        "        polytope.edge_directions(ext.poly, point)\n"
        "    except InternalMismatch as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "edge 0 breaks the tightness pattern at tight row 0",
        "edge 3 breaks the tightness pattern at tight row 0",
    ]


def test_edge_pivot_check_survives_optimize_flag():
    # Under python -O a pivot that drops the (A_b . dir_f) dir_i term, here
    # built from the entering row's products it is handed, keeps every
    # column but the one for the entering row b on the wrong plane; the
    # tightness check must refuse it at the first pivoted vertex.
    code = (
        "from extparab import exactla\n"
        "from extparab.activeset import active_set_run, make_rule, pullback_objective\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "inverse, calls = exactla.int_inverse_scaled, []\n"
        "def dropped(rows, previous=None, swapped=None, products=()):\n"
        "    calls.append(swapped)\n"
        "    if previous is None:\n"
        "        return inverse(rows)\n"
        "    a = products[swapped]\n"
        "    sign = 1 if a > 0 else -1\n"
        "    return [[sign * x for x in previous[swapped]] if k == swapped else [abs(a) * x for x in z]\n"
        "            for k, z in enumerate(previous)]\n"
        "exactla.int_inverse_scaled = dropped\n"
        "ext = build(ConstructionParams(n=32, d=4))\n"
        "try:\n"
        "    active_set_run(ext.poly, pullback_objective(ext), vertex_for_t(ext, 0), make_rule('first'), 64)\n"
        "except InternalMismatch as exc:\n"
        "    print(f'vertex {len(calls)}: {exc}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "vertex 2: edge 0 breaks the tightness pattern at tight row 1"


def test_edge_directions_refuse_an_unproven_predecessor_under_optimize_flag():
    # Under python -O a pivot starts only from a list edge_directions proved
    # for the same polytope object.  A hand-built list (here with column 0 +
    # column 2 of t = 0, which the row entering at t = 1 annihilates, so a
    # pivot would keep it), a plain copy of a proven list and a list proven
    # for an equal but separate polytope are all refused before any pivot.
    code = (
        "from extparab import exactla, polytope\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "from extparab.polytope import HPolytope\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "twin = HPolytope(ext.poly.A, ext.poly.b)\n"
        "p0, p1 = (polytope.scaled_point(ext.poly, vertex_for_t(ext, t)) for t in (0, 1))\n"
        "swap = (*set(p0.tight) - set(p1.tight), *set(p1.tight) - set(p0.tight))\n"
        "edges = polytope.edge_directions(ext.poly, p0)\n"
        "corrupt = tuple(a + b for a, b in zip(edges[0][1], edges[2][1]))\n"
        "unproven = {\n"
        "    'hand-built': [edges[0], edges[1], (edges[2][0], corrupt), edges[3]],\n"
        "    'copied': list(edges),\n"
        "    'twin': polytope.edge_directions(twin, polytope.scaled_point(twin, vertex_for_t(ext, 0))),\n"
        "}\n"
        "inverse, calls = exactla.int_inverse_scaled, []\n"
        "def recorded(rows, previous=None, swapped=None, products=()):\n"
        "    calls.append(swapped)\n"
        "    return inverse(rows, previous, swapped, products)\n"
        "exactla.int_inverse_scaled = recorded\n"
        "for name, previous in unproven.items():\n"
        "    try:\n"
        "        polytope.edge_directions(ext.poly, p1, (previous, *swap))\n"
        "    except InternalMismatch as exc:\n"
        "        print(f'{name}, {len(calls)} inverses: {exc}')\n"
        "print(polytope.edge_directions(ext.poly, p1, (edges, *swap)) == polytope.edge_directions(ext.poly, p1))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    refusal = "edges are pivoted only from a list proven for this polytope"
    assert done.stdout.splitlines() == [
        f"hand-built, 0 inverses: {refusal}",
        f"copied, 0 inverses: {refusal}",
        f"twin, 0 inverses: {refusal}",
        "True",
    ]


def test_edge_check_sees_a_stale_column_at_the_entering_row_under_optimize_flag():
    # Under python -O a pivot that hands back the previous column object
    # where the entering row's product is nonzero passes every kept row (the
    # column was proven there) and must be refused at the entering row: the
    # check reads that column's product, the one the pivot was handed, which
    # must be 0 for a column the pivot keeps.
    code = (
        "from extparab import exactla, polytope\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "p0, p1, p2 = (polytope.scaled_point(ext.poly, vertex_for_t(ext, t)) for t in range(3))\n"
        "swap = lambda a, b: (*set(a.tight) - set(b.tight), *set(b.tight) - set(a.tight))\n"
        "edges = polytope.edge_directions(ext.poly, p0)\n"
        "edges = polytope.edge_directions(ext.poly, p1, (edges, *swap(p0, p1)))\n"
        "inverse = exactla.int_inverse_scaled\n"
        "def stale(rows, previous=None, swapped=None, products=()):\n"
        "    columns = inverse(rows, previous, swapped, products)\n"
        "    k = next(k for k, c in enumerate(columns) if k != swapped and c is not previous[k])\n"
        "    columns[k] = previous[k]\n"
        "    return columns\n"
        "exactla.int_inverse_scaled = stale\n"
        "(entering,) = set(p2.tight).difference(p1.tight)\n"
        "try:\n"
        "    polytope.edge_directions(ext.poly, p2, (edges, *swap(p1, p2)))\n"
        "except InternalMismatch as exc:\n"
        "    print(f'entering row at {p2.tight.index(entering)}: {exc}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        "entering row at 1: edge 0 breaks the tightness pattern at tight row 1"
    )


def test_edge_directions_refuse_a_swap_the_move_did_not_make_under_optimize_flag():
    # Under python -O a pivot starts only where the tight rows are the
    # previous ones with exactly the handed-over (leaving, entering) swap: a
    # ratio test that names the row after the blocking one stops the walk at
    # its first pivoted vertex, and four wrong swaps at t = 1 are refused,
    # all before any pivot.
    code = (
        "from extparab import exactla, polytope\n"
        "from extparab.activeset import active_set_run, make_rule, pullback_objective\n"
        "from extparab.errors import InternalMismatch\n"
        "from extparab.extension import ConstructionParams, build, vertex_for_t\n"
        "assert False, 'asserts must be stripped'\n"
        "ratio_test, inverse, pivots = polytope.ratio_test, exactla.int_inverse_scaled, []\n"
        "def next_row(poly, point, direction):\n"
        "    mu, row = ratio_test(poly, point, direction)\n"
        "    return mu, row + 1\n"
        "def recorded(rows, previous=None, swapped=None, products=()):\n"
        "    pivots.append(previous is not None)\n"
        "    return inverse(rows, previous, swapped, products)\n"
        "polytope.ratio_test, exactla.int_inverse_scaled = next_row, recorded\n"
        "ext = build(ConstructionParams(n=16, d=4))\n"
        "try:\n"
        "    active_set_run(ext.poly, pullback_objective(ext), vertex_for_t(ext, 0), make_rule('first'), 64)\n"
        "except InternalMismatch as exc:\n"
        "    print(f'walk, {len(pivots)} inverses, {sum(pivots)} pivots: {exc}')\n"
        "p0, p1, p2 = (polytope.scaled_point(ext.poly, vertex_for_t(ext, t)) for t in range(3))\n"
        "(leaving,), (entering,) = set(p0.tight) - set(p1.tight), set(p1.tight) - set(p0.tight)\n"
        "edges = polytope.edge_directions(ext.poly, p0)\n"
        "handed = {\n"
        "    'two rows': (p2, (leaving, entering)),\n"
        "    'reversed': (p1, (entering, leaving)),\n"
        "    'untight leaving': (p1, (entering, entering)),\n"
        "    'tight entering': (p1, (leaving, p0.tight[0])),\n"
        "}\n"
        "for name, (point, swap) in handed.items():\n"
        "    pivots.clear()\n"
        "    try:\n"
        "        polytope.edge_directions(ext.poly, point, (edges, *swap))\n"
        "    except InternalMismatch as exc:\n"
        "        print(f'{name}, {sum(pivots)} pivots: {exc}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "walk, 1 inverses, 0 pivots: tight rows (0, 1, 4, 7) are not (0, 3, 4, 7) with row 3 swapped for 2",
        "two rows, 0 pivots: tight rows (1, 2, 4, 7) are not (0, 3, 4, 7) with row 3 swapped for 1",
        "reversed, 0 pivots: tight rows (0, 1, 4, 7) are not (0, 3, 4, 7) with row 1 swapped for 3",
        "untight leaving, 0 pivots: tight rows (0, 1, 4, 7) are not (0, 3, 4, 7) with row 1 swapped for 1",
        "tight entering, 0 pivots: tight rows (0, 1, 4, 7) are not (0, 3, 4, 7) with row 3 swapped for 0",
    ]


def reference_vrep_to_ext(points):
    """The Fraction V-representation writer that the state writer replaced, kept as the oracle."""
    pts = [exactla.vec(p) for p in points]
    if not pts:
        raise FormatError("empty vertex list")
    dim = len(pts[0])
    lines = ["V-representation", "begin", f"{len(pts)} {dim + 1} rational"]
    for i, p in enumerate(pts):
        if len(p) != dim:
            raise DimensionMismatch(f"point {i} has dim {len(p)}, point 0 has dim {dim}")
        lines.append(" ".join(["1"] + [str(c) for c in p]))
    lines.append("end")
    return "\n".join(lines) + "\n"


@st.composite
def vertex_lists(draw):
    """(Fraction points of one dim, their states, some scaled by a common factor > 1)."""
    dim = draw(st.integers(1, 5))
    point = st.lists(ENTRIES, min_size=dim, max_size=dim).map(tuple)
    points = draw(st.lists(point, min_size=1, max_size=6))
    states = []
    for p in points:
        nums, denom = exactla.common_denominator(p)
        k = draw(st.sampled_from([1, 1, 2, 2**70 + 1]))
        states.append((tuple(a * k for a in nums), denom * k))
    return points, states


@given(vertex_lists())
@settings(max_examples=150, deadline=None)
def test_vrep_writer_matches_the_fraction_reference(case):
    points, states = case
    assert polytope.vrep_to_ext(states) == reference_vrep_to_ext(points)


def test_vrep_writer_matches_the_fraction_reference_across_batches():
    # The writer transposes BATCH states at a time: two full batches and a
    # partial last one, with mixed denominators, give the reference's text.
    points = [(F(i, 7), F(-i, i % 5 + 1), F(i * i)) for i in range(2 * polytope.BATCH + 3)]
    states = [exactla.common_denominator(p) for p in points]
    assert polytope.vrep_to_ext(states) == reference_vrep_to_ext(points)


def test_vrep_rejects_an_empty_vertex_list():
    for writer in (polytope.vrep_to_ext, reference_vrep_to_ext):
        with pytest.raises(FormatError, match=r"^empty vertex list$"):
            writer([])


def test_vrep_format_shape():
    text = polytope.vrep_to_ext([((0, 0), 1), ((1, 0), 1), ((3, -2), 9)])
    lines = text.strip().splitlines()
    assert lines[0] == "V-representation"
    assert lines[2] == "3 3 rational"
    assert lines[5] == "1 1/3 -2/9"


def test_vrep_rejects_ragged_points():
    # The width comes from the first point; a shorter one would be written
    # as a malformed row under a "2 3 rational" size line.
    with pytest.raises(DimensionMismatch, match=r"^point 1 has dim 1, point 0 has dim 2$"):
        polytope.vrep_to_ext([((0, 0), 1), ((1,), 1)])
    with pytest.raises(DimensionMismatch):
        polytope.vrep_to_ext([((0,), 1), ((1, 0), 1)])
