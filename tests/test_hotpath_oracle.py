"""The sparse integer hot path against the dense Fraction reference.

The reference below is the straightforward implementation the hot path
replaced: slacks as Fractions b_i - A_i . x, a Bareiss fraction-free
Gauss-Jordan inverse that updates every row at every pivot, primitive
vectors through Fractions, a dense tightness check, and rank by Fraction
Gaussian elimination.  At every vertex of the listed towers the hot path
must give exactly the same slacks, tight set, simple-vertex verdict and
(leaving facet, primitive direction) list.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

from extparab import exactla, polytope
from extparab.errors import DegenerateVertex, InternalMismatch, NotFeasible
from extparab.extension import ConstructionParams, build, vertex_for_t


def reference_slacks(poly, x):
    return tuple(rhs - exactla.dot(row, x) for row, rhs in poly._int_rows)


def reference_tight_set(poly, x):
    return tuple(i for i, s in enumerate(reference_slacks(poly, x)) if s == 0)


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


TOWERS = [(4 * d, d) for d in (2, 4, 6, 8)] + [(32, 4), (48, 6)]


@pytest.mark.parametrize("n, d", TOWERS, ids=[f"n{n}-d{d}" for n, d in TOWERS])
def test_hot_path_matches_reference_at_every_vertex(n, d):
    ext = build(ConstructionParams(n=n, d=d))
    poly = ext.poly
    for t in range(ext.params.vertex_count):
        v = vertex_for_t(ext, t)
        assert polytope.slacks(poly, v) == reference_slacks(poly, v), t
        assert polytope.tight_set(poly, v) == reference_tight_set(poly, v), t
        assert polytope.edge_directions(poly, v) == reference_edge_directions(poly, v), t
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

