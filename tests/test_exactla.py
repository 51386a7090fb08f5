"""Exact linear algebra: primitive vectors, inverse columns (eliminated and
pivoted by one row, keeping the columns it need not change), the edge
check's product count, and the rank oracle."""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extparab import exactla, polytope
from extparab.activeset import active_set_run, make_rule, pullback_objective
from extparab.errors import InternalMismatch, ZeroVector
from extparab.extension import ConstructionParams, build, state_for_t, vertex_for_t
from extparab.polytope import HPolytope
from test_hotpath_oracle import reference_rank, reference_to_decimal, swap_between


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
    assert type(ints) is tuple and all(type(e) is int for e in ints)
    # The input over its content, so every sign is kept and the content is 1.
    g = gcd(*entries)
    assert [a * g for a in ints] == entries and gcd(*ints) == 1
    # An exact tuple comes back as itself exactly when its content is 1; a list never does.
    exact = tuple(entries)
    assert ints is not entries and (exactla.primitive(exact) is exact) == (g == 1)


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


def _counting_gcd(monkeypatch):
    """Replace ``exactla.gcd`` by a counting one; the list grows by one per call."""
    calls = []

    def counted(*values):
        calls.append(values)
        return gcd(*values)

    monkeypatch.setattr(exactla, "gcd", counted)
    return calls


def test_primitive_keeps_a_vector_of_content_one(monkeypatch):
    assert exactla.primitive([3, -2, 0]) == (3, -2, 0)
    assert exactla.primitive((-1,)) == (-1,)
    assert exactla.primitive([0, -6, 4]) == (0, -3, 2)
    # A tuple of content 1 comes back as the same object, after one gcd, so a
    # column the pivot kept is neither copied nor reduced; a list of content
    # 1 comes back as an equal tuple.
    calls = _counting_gcd(monkeypatch)
    for v in ((3, -2, 0), (-1,), (0, 0, 1)):
        ints = exactla.primitive(v)
        assert ints == v and ints is v
        assert exactla.primitive(ints) is ints
        copied = exactla.primitive(list(v))
        assert copied == v and type(copied) is tuple
    assert len(calls) == 9


@given(st.lists(big_ints, min_size=1, max_size=12).filter(any))
def test_primitive_returns_its_own_result_after_one_gcd(entries):
    with pytest.MonkeyPatch.context() as monkeypatch:
        ints = exactla.primitive(entries)
        calls = _counting_gcd(monkeypatch)
        assert exactla.primitive(ints) is ints
        assert calls == [ints]


def test_primitive_takes_d_gcds_and_keeps_the_columns_a_pivot_kept(monkeypatch):
    # Along the (32,8) path each vertex makes d primitive calls, one gcd each.
    # A column the pivot handed back as the previous vertex's object comes
    # back from primitive as that object, so the fresh positions are exactly
    # the columns the pivot replaced: all d at the start vertex, about 2 later.
    ext = build(ConstructionParams(n=32, d=8))
    d, inside, primitives, gcds, kept, same, fresh = 8, [False], [], [], [], [], []
    take_primitive, inverse = exactla.primitive, exactla.int_inverse_scaled
    enumerate_edges = polytope.edge_directions

    def counted_gcd(*values):
        gcds[-1] += inside[0]
        return gcd(*values)

    def counted_primitive(v):
        primitives[-1] += 1
        inside[0] = True
        try:
            return take_primitive(v)
        finally:
            inside[0] = False

    def recorded_inverse(rows, previous=None, swapped=None, products=()):
        columns = inverse(rows, previous, swapped, products)
        kept.append([(k, col) for k, col in enumerate(columns) if previous and col is previous[k]])
        return columns

    def counted_edges(poly, point, pivot=None):
        primitives.append(0)
        gcds.append(0)
        edges = enumerate_edges(poly, point, pivot)
        same.append(all(edges.directions[k] is col for k, col in kept[-1]))
        fresh.append(edges.fresh)
        return edges

    monkeypatch.setattr(exactla, "gcd", counted_gcd)
    monkeypatch.setattr(exactla, "primitive", counted_primitive)
    monkeypatch.setattr(exactla, "int_inverse_scaled", recorded_inverse)
    monkeypatch.setattr(polytope, "edge_directions", counted_edges)
    f, start = pullback_objective(ext), vertex_for_t(ext, 0)
    trace = active_set_run(ext.poly, f, start, make_rule("first"), 1024)
    assert trace.edge_moves == 255 and primitives == [d] * 256
    assert gcds == [d] * 256 and all(same) and len(same) == 256
    assert fresh == [tuple(k for k in range(d) if k not in dict(ks)) for ks in kept]
    replaced = [d - len(ks) for ks in kept]
    assert replaced[0] == d
    assert all(c >= 1 for c in replaced[1:]) and sum(replaced[1:]) < 3 * 255


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


def pivoted_inverse(rows, columns, p):
    """``int_inverse_scaled``'s one-row update of ``columns`` by the new row ``rows[p]``, with
    that row's products r . z_k computed here, as ``edge_directions`` computes them once."""
    products = [sum(a * y for a, y in zip(rows[p], z)) for z in columns]
    return exactla.int_inverse_scaled(rows, columns, p, products)


@given(row_swaps())
@settings(max_examples=200, deadline=None)
def test_int_inverse_scaled_pivot_matches_elimination(swap):
    rows, columns, p, new_row = swap
    swapped = rows[:p] + [new_row] + rows[p + 1 :]
    full = exactla.int_inverse_scaled(swapped)
    pivoted = pivoted_inverse(swapped, columns, p)
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
    assert pivoted_inverse([rows[0], rows[1], [4, 5, 0]], columns, 2) is None
    assert exactla.int_inverse_scaled([rows[0], rows[1], [4, 5, 0]]) is None
    # The same swap with an independent row, either sign of r . z_p.
    for new_row in ([0, 0, 1], [0, 0, -1]):
        swapped = [rows[0], rows[1], new_row]
        pivoted = pivoted_inverse(swapped, columns, 2)
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
        columns = pivoted_inverse(rows, previous, p)
        for k, (col, z) in enumerate(zip(columns, previous)):
            if k != p and sum(a * y for a, y in zip(rows[p], z)) == 0:
                assert col is z, (t, k)
                kept += 1
            else:
                assert col is not z, (t, k)
    assert kept > 2 * (ext.params.vertex_count - 1)


def test_edge_check_counts_d_squared_then_only_the_changed_products(monkeypatch):
    # Test-side row functions in the polytope's _rows count the products
    # edge_directions evaluates on a d = 8 walk: d^2 at the start vertex, then
    # d (1 + c) at a vertex whose pivot replaced c columns (the entering row
    # against all d once, which the pivot and the check share, and every
    # tight row against the c replaced ones).
    ext = build(ConstructionParams(n=32, d=8))
    poly, d = ext.poly, 8
    products, inside = [], [False]

    def counting(rows):
        def counted(row):
            def product(x):
                if inside[0]:
                    products[-1] += 1
                return row(x)

            return product

        return tuple(map(counted, rows))

    poly.__dict__["_rows"] = counting(poly._rows)
    enumerate_edges, replaced = polytope.edge_directions, []

    def counted(poly, point, pivot=None):
        products.append(0)
        inside[0] = True
        try:
            edges = enumerate_edges(poly, point, pivot)
        finally:
            inside[0] = False
        if pivot is not None:
            old = {id(direction) for _, direction in pivot[0]}
            replaced.append(sum(id(direction) not in old for _, direction in edges))
        return edges

    monkeypatch.setattr(polytope, "edge_directions", counted)
    f, start = pullback_objective(ext), vertex_for_t(ext, 0)
    trace = active_set_run(poly, f, start, make_rule("first"), 1024)
    assert trace.edge_moves == 255 and len(products) == 256
    assert products[0] == d * d
    assert products[1:] == [d * (1 + c) for c in replaced]
    assert all(c >= 1 for c in replaced) and sum(replaced) < 3 * len(replaced)
    # Edges proven for another polytope object, even an equal one, are refused before any product.
    twin = HPolytope(poly.A, poly.b)
    twin.__dict__["_rows"] = counting(twin._rows)
    here, there = (polytope.scaled_point(poly, vertex_for_t(ext, t)) for t in (0, 1))
    with pytest.raises(InternalMismatch, match="^edges are pivoted only from a list proven for"):
        counted(twin, there, (counted(poly, here), *swap_between(here, there)))
    assert products[-2:] == [d * d, 0]


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


STAIRCASE_TOWERS = [(16, 4), (32, 8), (48, 6), (40, 10), (48, 12)]


@pytest.mark.parametrize("n, d", STAIRCASE_TOWERS, ids=[f"n{n}-d{d}" for n, d in STAIRCASE_TOWERS])
def test_the_mirrored_elimination_updates_one_row_per_level(n, d, monkeypatch):
    # A test-side counter of the rows each elimination step changes (those
    # with a nonzero entry in the pivot column): on the tower's staircase
    # tight matrices, run from the last column, exactly one row per level,
    # d/2 in all, at every vertex; the first-column order filled in down the
    # staircase, 9.5 / 12 / 16 / 20 row updates on average at d = 6 / 8 / 10 / 12.
    clear, updates = exactla._clear_column, []

    def counted(work, k, col, targets):
        targets = list(targets)
        updates[-1] += sum(1 for r in targets if work[r][col])
        clear(work, k, col, targets)

    monkeypatch.setattr(exactla, "_clear_column", counted)
    ext = build(ConstructionParams(n=n, d=d))
    for t in range(ext.params.vertex_count):
        point = polytope.scaled_point(ext.poly, vertex_for_t(ext, t))
        updates.append(0)
        assert polytope.is_simple(ext.poly, point), t
    assert updates == [d // 2] * ext.params.vertex_count


def test_is_nonsingular_keeps_its_input():
    rows = [[2, 4], [1, 3]]
    assert exactla.is_nonsingular(rows) and rows == [[2, 4], [1, 3]]
    assert not exactla.is_nonsingular([[2, 4], [1, 2]])


# ---------------------------------------------------------------------------
# The parity pass: an odd determinant proves full rank, an even one decides nothing


def parity_masks(rows):
    """Bit j of a row's mask is set where its entry j is odd."""
    return [sum((a & 1) << j for j, a in enumerate(row)) for row in rows]


def leibniz_det(rows):
    """The determinant as a sum over permutations, each signed by its inversion count."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


EVEN_DETERMINANTS = [[[1, 1], [1, -1]], [[2, 4], [1, 3]]]  # det -2; a row of even entries, det 2
square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square_matrices)
@example(EVEN_DETERMINANTS[0])
@example(EVEN_DETERMINANTS[1])
@example(LAST_STEP_SINGULAR)
@settings(max_examples=300, deadline=None)
def test_full_rank_mod2_is_an_odd_determinant(rows):
    odd = leibniz_det(rows) % 2 == 1
    assert exactla.full_rank_mod2(parity_masks(rows)) is odd
    if odd:
        assert exactla.is_nonsingular(rows)


@pytest.mark.parametrize("rows", EVEN_DETERMINANTS, ids=["det-minus-2", "even-row"])
def test_an_even_determinant_goes_to_the_exact_pass(rows, monkeypatch):
    exact, real = [], exactla.is_nonsingular
    monkeypatch.setattr(exactla, "is_nonsingular", lambda tight: exact.append(tight) or real(tight))
    poly = HPolytope(tuple(map(tuple, rows)), (0, 0))
    point = polytope.locate(poly, (0, 0), 1)
    assert point.tight == (0, 1) and not exactla.full_rank_mod2(poly._parity_rows)
    assert polytope.is_simple(poly, point) and [list(row) for row in exact[0]] == rows
    assert len(exact) == 1


ORACLE_TOWERS = [(8, 2), (16, 4), (24, 6), (32, 8), (48, 6)]


@pytest.mark.parametrize("n, d", ORACLE_TOWERS, ids=[f"n{n}-d{d}" for n, d in ORACLE_TOWERS])
def test_is_simple_matches_the_exact_pass_at_every_vertex(n, d):
    # The twin's rows are divided by their column and row contents, and every
    # tight determinant there is odd, so parity decides each set; in x, with
    # the tower's own rows, every one is even and the exact pass decides.
    ext = build(ConstructionParams(n=n, d=d))
    count = ext.params.vertex_count
    for poly, states, parity_decides in (
        (ext.twin, [state_for_t(ext, t) for t in range(count)], True),
        (ext.poly, [polytope.cleared(ext.poly, vertex_for_t(ext, t)) for t in range(count)], False),
    ):
        assert list(poly._parity_rows) == parity_masks(row for row, _ in poly._int_rows)
        for state in states:
            point = polytope.locate(poly, *state)
            rows = [poly._int_rows[i][0] for i in point.tight]
            exact = len(rows) == d and exactla.is_nonsingular(rows)
            assert polytope.is_simple(poly, point) is exact
            assert exactla.full_rank_mod2(parity_masks(rows)) is parity_decides


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
    assert exactla.decimal_texts([1, 6], [150, 2]) == ["0.00666666666667", "3"]
    assert exactla.decimal_texts([], []) == []


# Numerators (zero, negative, whole multiples of the denominator) over a
# positive denominator, times a common factor so that pairs are often not in
# lowest terms.
numerators = st.integers(-(10**30), 10**30)
denominators = st.integers(1, 10**30)
factors = st.integers(1, 10**6)


@given(st.lists(st.tuples(numerators, denominators), max_size=6), factors)
@example([(0, 5), (5, 5), (-5, 5), (10, 5), (-3, 5), (7, 5)], 1)
@example([(0, 2), (6, 2), (-4, 2), (9, 6)], 3)
@example([(1, 1), (-1, 1)], 1)
def test_rational_texts_match_fraction_str(pairs, factor):
    nums, denoms = [a * factor for a, _ in pairs], [q * factor for _, q in pairs]
    assert exactla.rational_texts(nums, denoms) == [str(F(a, q)) for a, q in pairs]


@given(st.lists(st.tuples(numerators, denominators), max_size=6), factors)
@example([(0, 7)], 3)
@example([(-1, 150)], 2)
@example([(10**15, 1), (3, 1)], 5)
@example([(3, 1), (-1, 150), (0, 7)], 1)
def test_decimal_text_matches_local_context_form(pairs, factor):
    # Pairwise over the columns, each text the value's alone: scaling a pair
    # or reducing it to lowest terms gives the same text.
    values = [F(a, q) for a, q in pairs]
    texts = exactla.decimal_texts([a * factor for a, _ in pairs], [q * factor for _, q in pairs])
    assert texts == [reference_to_decimal(value) for value in values]
    lowest = [v.numerator for v in values], [v.denominator for v in values]
    assert texts == exactla.decimal_texts(*lowest)
