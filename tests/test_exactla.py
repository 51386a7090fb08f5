"""Exact linear algebra: rank, primitive vectors, inverse columns."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extparab import exactla
from extparab.errors import ZeroVector


def test_rank_zero_matrix():
    assert exactla.rank(exactla.mat([[0, 0, 0]] * 3)) == 0


def test_rank_identity():
    assert exactla.rank(exactla.identity(4)) == 4


def test_rank_proportional_rows():
    assert exactla.rank(exactla.mat([[1, 2], [2, 4]])) == 1


def test_primitive_clears_denominators():
    assert exactla.primitive((F(1, 3), F(-2, 9))) == (3, -2)


def test_primitive_divides_gcd():
    assert exactla.primitive((2, 4)) == (1, 2)


def test_primitive_zero_vector():
    with pytest.raises(ZeroVector):
        exactla.primitive((0, 0))


small_ints = st.integers(min_value=-30, max_value=30)
rationals = st.builds(F, small_ints, st.integers(min_value=1, max_value=30))


@given(st.lists(rationals, min_size=1, max_size=6), rationals.filter(lambda r: r > 0))
def test_primitive_scale_invariant(entries, scale):
    if all(e == 0 for e in entries):
        return
    base = exactla.primitive(tuple(entries))
    scaled = exactla.primitive(tuple(scale * e for e in entries))
    assert base == scaled


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=80, deadline=None)
def test_int_inverse_scaled_matches_solve(n, data):
    rows = data.draw(
        st.lists(
            st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    a = exactla.mat(rows)
    singular = exactla.rank(a) < n
    columns = exactla.int_inverse_scaled(rows)
    if singular:
        assert columns is None
        return
    assert columns is not None
    for k, col in enumerate(columns):
        image = exactla.matvec(a, col)
        # A . y_k must be a positive multiple of e_k.
        assert image[k] > 0
        for j in range(n):
            if j != k:
                assert image[j] == 0


@given(rationals, rationals)
def test_exact_addition_cancels(a, b):
    assert (a + b) - b == a


def test_to_decimal_is_display_only():
    assert exactla.to_decimal(F(1, 150)) == "0.00666666666667"
    assert exactla.to_decimal(F(3), 4) == "3"
