"""Exact linear algebra: primitive vectors, inverse columns (eliminated and
pivoted by one row, keeping the columns it need not change), the edge
check's product count, and the rank oracle."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extparab import exactla, polytope
from extparab.activeset import active_set_run, make_rule, pullback_objective
from extparab.errors import ZeroVector
from extparab.extension import ConstructionParams, build, vertex_for_t
from extparab.polytope import HPolytope
from test_hotpath_oracle import reference_rank, reference_to_decimal


def test_rank_zero_matrix():
    assert reference_rank([[0, 0, 0]] * 3) == 0


def test_rank_identity():
    assert reference_rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4


def test_rank_proportional_rows():
    assert reference_rank([[1, 2], [2, 4]]) == 1


def test_primitive_divides_gcd():
    assert exactla.primitive((2, 4)) == (1, 2)


def test_primitive_zero_vector():
    for zero in [(0, 0), (0,), ()]:
        with pytest.raises(ZeroVector):
            exactla.primitive(zero)


small_ints = st.integers(min_value=-30, max_value=30)
rationals = st.builds(F, small_ints, st.integers(min_value=1, max_value=30))


@given(st.lists(small_ints, min_size=1, max_size=6), st.integers(min_value=1, max_value=30))
def test_primitive_scale_invariant(entries, scale):
    if all(e == 0 for e in entries):
        return
    base = exactla.primitive(tuple(entries))
    scaled = exactla.primitive(tuple(scale * e for e in entries))
    assert base == scaled


big_ints = st.integers(min_value=-(2**40), max_value=2**40)


@given(st.lists(big_ints, min_size=1, max_size=12))
def test_primitive_divides_by_its_content(entries):
    if all(e == 0 for e in entries):
        return
    ints = exactla.primitive(entries)
    assert all(type(e) is int for e in ints)
    # The input over its content, so every sign is kept and the content is 1.
    g = gcd(*entries)
    assert [a * g for a in ints] == entries and gcd(*ints) == 1


@st.composite
def int_matrices(draw):
    """Small dense matrices, or sparse ones (<= 3 nonzeros a row) with big entries."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=5))
        return draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
    n = draw(st.integers(min_value=1, max_value=12))
    with_diagonal = draw(st.booleans())  # mostly nonsingular; without it, mostly singular
    nonzero = big_ints.filter(bool)
    rows = []
    for i in range(n):
        cols = set(draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)))
        if with_diagonal:
            cols = set(sorted(cols)[:2]) | {i}
        rows.append([draw(nonzero) if j in cols else 0 for j in range(n)])
    return rows


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_int_inverse_scaled_matches_solve(rows):
    n = len(rows)
    singular = reference_rank(rows) < n
    columns = exactla.int_inverse_scaled(rows)
    if singular:
        assert columns is None
        return
    assert columns is not None
    for k, col in enumerate(columns):
        image = [sum(a * y for a, y in zip(row, col)) for row in rows]
        # A . y_k must be a positive multiple of e_k.
        assert image[k] > 0
        for j in range(n):
            if j != k:
                assert image[j] == 0


def test_primitive_keeps_a_vector_of_content_one():
    assert exactla.primitive([3, -2, 0]) == (3, -2, 0)
    assert exactla.primitive((-1,)) == (-1,)
    assert exactla.primitive([0, -6, 4]) == (0, -3, 2)
    # A content-1 tuple comes back as the same object, which is how edge
    # enumeration tells a column the pivot kept from one it replaced.
    for v in ((3, -2, 0), (-1,), (0, 0, 1)):
        assert exactla.primitive(v) is v


@st.composite
def row_swaps(draw):
    """(rows, columns for them up to positive scale, swapped row p, new row r)."""
    rows = draw(int_matrices().filter(lambda rows: reference_rank(rows) == len(rows)))
    n = len(rows)
    columns = exactla.int_inverse_scaled(rows)
    scales = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=n, max_size=n))
    columns = [[s * y for y in col] for s, col in zip(scales, columns)]
    p = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()):
        new_row = draw(st.lists(small_ints | big_ints, min_size=n, max_size=n))
    else:  # a combination of the kept rows: the new matrix is singular
        weights = draw(st.lists(small_ints, min_size=n, max_size=n))
        new_row = [sum(w * row[c] for w, row in zip(weights, rows[:p] + rows[p + 1 :])) for c in range(n)]
    return rows, columns, p, new_row


def _same_up_to_positive_scale(u, v):
    return exactla.primitive(u) == exactla.primitive(v)


@given(row_swaps())
@settings(max_examples=200, deadline=None)
def test_int_inverse_scaled_pivot_matches_elimination(swap):
    rows, columns, p, new_row = swap
    swapped = rows[:p] + [new_row] + rows[p + 1 :]
    full = exactla.int_inverse_scaled(swapped)
    pivoted = exactla.int_inverse_scaled(swapped, columns, p)
    if full is None:
        assert pivoted is None
        return
    assert pivoted is not None and len(pivoted) == len(full)
    for k, (col, ref) in enumerate(zip(pivoted, full)):
        assert _same_up_to_positive_scale(col, ref), k
        if k != p and sum(a * y for a, y in zip(new_row, columns[k])) == 0:
            assert col is columns[k], k  # a column the new row annihilates is kept


def test_int_inverse_scaled_pivot_on_a_dependent_row_is_none():
    rows = [[2, 1, 0], [0, 1, 0], [1, 0, 3]]
    columns = exactla.int_inverse_scaled(rows)
    assert exactla.int_inverse_scaled([rows[0], rows[1], [4, 5, 0]], columns, 2) is None
    assert exactla.int_inverse_scaled([rows[0], rows[1], [4, 5, 0]]) is None
    # The same swap with an independent row, either sign of r . z_p.
    for new_row in ([0, 0, 1], [0, 0, -1]):
        swapped = [rows[0], rows[1], new_row]
        pivoted = exactla.int_inverse_scaled(swapped, columns, 2)
        for col, ref in zip(pivoted, exactla.int_inverse_scaled(swapped)):
            assert _same_up_to_positive_scale(col, ref)


def test_int_inverse_scaled_pivot_keeps_annihilated_columns_as_objects():
    # At each move of the (24, 6) tower's path, every edge direction of the
    # vertex left that the entering row annihilates (other than the swapped
    # one) comes back from the pivot as the very same tuple.
    ext = build(ConstructionParams(n=24, d=6))
    poly = ext.poly
    kept = 0
    for t in range(ext.params.vertex_count - 1):
        here, there = (polytope.scaled_point(poly, vertex_for_t(ext, s)) for s in (t, t + 1))
        edges = polytope.edge_directions(poly, here)
        facets = [facet for facet, _ in edges]
        (left,) = set(facets).difference(there.tight)
        (entered,) = set(there.tight).difference(facets)
        p = facets.index(left)
        facets[p] = entered
        previous = [direction for _, direction in edges]
        rows = [poly._neg_rows[i] for i in facets]
        columns = exactla.int_inverse_scaled(rows, previous, p)
        for k, (col, z) in enumerate(zip(columns, previous)):
            if k != p and sum(a * y for a, y in zip(rows[p], z)) == 0:
                assert col is z, (t, k)
                kept += 1
            else:
                assert col is not z, (t, k)
    assert kept > 2 * (ext.params.vertex_count - 1)


def test_edge_check_counts_d_squared_then_only_the_changed_products(monkeypatch):
    # Test-side row functions in the polytope's kernel count the products
    # edge_directions evaluates on a d = 8 walk: d^2 at the start vertex, then
    # d (1 + c) - c at a vertex whose pivot replaced c columns (the entering
    # row against all d, every other tight row against the c replaced ones).
    ext = build(ConstructionParams(n=32, d=8))
    poly, d = ext.poly, 8
    products, inside = [], [False]

    def counting(kernel):
        def counted(row):
            def product(x):
                if inside[0]:
                    products[-1] += 1
                return row(x)

            return product

        return kernel._replace(rows=tuple(map(counted, kernel.rows)))

    poly.__dict__["_kernel"] = counting(poly._kernel)
    enumerate_edges, replaced = polytope.edge_directions, []

    def counted(poly, point, previous=None):
        products.append(0)
        inside[0] = True
        try:
            edges = enumerate_edges(poly, point, previous)
        finally:
            inside[0] = False
        if previous is not None:
            old = {id(direction) for _, direction in previous}
            replaced.append(sum(id(direction) not in old for _, direction in edges))
        return edges

    monkeypatch.setattr(polytope, "edge_directions", counted)
    f, start = pullback_objective(ext), vertex_for_t(ext, 0)
    trace = active_set_run(poly, f, start, make_rule("first"), 1024)
    assert trace.edge_moves == 255 and len(products) == 256
    assert products[0] == d * d
    assert products[1:] == [d * (1 + c) - c for c in replaced]
    assert all(c >= 1 for c in replaced) and sum(replaced) < 3 * len(replaced)
    # Edges proven with another polytope object's kernel, even an equal one's, get all d^2.
    twin = HPolytope(poly.A, poly.b)
    twin.__dict__["_kernel"] = counting(twin._kernel)
    here, there = (polytope.scaled_point(poly, vertex_for_t(ext, t)) for t in (0, 1))
    counted(twin, there, counted(poly, here))
    assert products[-2:] == [d * d, d * d]


# Row 3 is row 0 + 2 row 1 - row 2: every column but the last has a pivot,
# so only the last forward step finds the dependency.
LAST_STEP_SINGULAR = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [8, 16, 3, 5]]
# The tight matrix of the (48, 6) tower's vertex t = 37: two rows per level,
# block lower triangular.
TOWER_TIGHT_48_6 = [
    [14, -49, 0, 0, 0, 0],
    [28, -49, 0, 0, 0, 0],
    [56, 0, 0, -3969, 0, 0],
    [-56, 0, 1008, -3969, 0, 0],
    [0, 0, -576, 0, -28032, -37303],
    [0, 0, 576, 0, 0, 5329],
]


@given(int_matrices())
@example(LAST_STEP_SINGULAR)
@example(TOWER_TIGHT_48_6)
@settings(max_examples=150, deadline=None)
def test_is_nonsingular_matches_reference_rank(rows):
    # The forward pass alone, without the identity block, decides full rank.
    assert exactla.is_nonsingular(rows) == (reference_rank(rows) == len(rows))


def test_the_tower_example_is_a_tight_matrix():
    ext = build(ConstructionParams(n=48, d=6))
    point = polytope.scaled_point(ext.poly, vertex_for_t(ext, 37))
    assert [list(ext.poly._int_rows[i][0]) for i in point.tight] == TOWER_TIGHT_48_6


def test_is_nonsingular_keeps_its_input():
    rows = [[2, 4], [1, 3]]
    assert exactla.is_nonsingular(rows) and rows == [[2, 4], [1, 3]]
    assert not exactla.is_nonsingular([[2, 4], [1, 2]])


@given(st.lists(st.tuples(rationals | small_ints, rationals | small_ints), max_size=8))
def test_dot_matches_fraction_sum(pairs):
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    expected = sum((F(a) * b for a, b in pairs), F(0))
    result = exactla.dot(u, v)
    assert type(result) is F and result == expected


@given(rationals, rationals)
def test_exact_addition_cancels(a, b):
    assert (a + b) - b == a


def test_decimal_text_is_display_only():
    assert exactla.decimal_text(1, 150) == "0.00666666666667"
    assert exactla.decimal_text(6, 2) == "3"


# Numerators (zero, negative, whole multiples of the denominator) over a
# positive denominator, times a common factor so that pairs are often not in
# lowest terms.
numerators = st.integers(-(10**30), 10**30)
denominators = st.integers(1, 10**30)
factors = st.integers(1, 10**6)


@given(st.lists(numerators, max_size=6), denominators, factors)
@example([0, 5, -5, 10, -3, 7], 5, 1)
@example([0, 6, -4], 2, 3)
@example([1, -1], 1, 1)
def test_rational_texts_match_fraction_str(nums, denom, factor):
    nums, denom = [a * factor for a in nums], denom * factor
    assert exactla.rational_texts(nums, denom) == [str(F(a, denom)) for a in nums]


@given(numerators, denominators, factors)
@example(0, 7, 3)
@example(-1, 150, 2)
@example(10**15, 1, 1)
@example(3, 1, 5)
def test_decimal_text_matches_local_context_form(numerator, denominator, factor):
    value = F(numerator, denominator)
    text = exactla.decimal_text(numerator * factor, denominator * factor)
    assert text == reference_to_decimal(value)
    assert text == exactla.decimal_text(value.numerator, value.denominator)
