"""Exact rational scalars and vectors, primitive integer vectors and integer inverses.

Everything downstream computes over arbitrary-precision rationals: tightness
tests (A_i . x = b_i) and the projection identities must hold with zero
tolerance, and the vertices carry denominators no float can represent.  The
scalar type is the stdlib ``fractions.Fraction``, which is already canonical
(gcd-reduced, positive denominator) and renders as ``p/q`` or ``p``, exactly
the text form used in every file format of this package.

Vectors are tuples of Fractions and matrices are tuples of row tuples, so all
values are immutable and safe to share; ``vec`` and ``mat`` coerce inputs to
them.  Dimensions stay small (d <= ~20, m = 2d), so the containers are dense.
The hot kernels work on plain ints instead: ``common_denominator`` puts
rationals over one integer denominator, ``dot`` multiplies two such vectors
once, and ``primitive`` divides an integer vector by its content (one gcd),
returning a tuple of content 1 as it is.  There is one integer elimination,
the fraction-free forward pass, which returns the rank of the columns it is
given (a column with no pivot left is skipped) and skips the rows a step
leaves unchanged.  It runs on the mirrored matrix A' (rows and columns reversed): a
tower vertex's tight rows, in index order, are a block lower-triangular
staircase, so from the last column it updates one row per level, d/2 in all,
where the first column's order filled in down the staircase.  It is the
full-rank test ``is_nonsingular`` and, over rows cleared to integers,
``rank``; ``int_inverse_scaled`` runs it and a back pass on [A' | I] and
reverses the columns back, or, given the columns for a matrix that differs
in one row and that row's products with them, pivots them in one
fraction-free rank-one update with those multipliers, which leaves every
column the new row annihilates as it was, so an edge walk, which swaps one
tight row per move, gets each vertex's inverse from the last one's.
Beside it, ``full_rank_mod2`` eliminates the rows' parity masks over GF(2)
and can only prove full rank: det(B) is an integer polynomial in the
entries, so it has the parity of det(B mod 2), and independent masks make
it odd, hence not 0; dependent ones leave it even, possibly 0.
``rational_texts`` and ``decimal_texts`` format integer pairs, pairwise over two columns.
"""

from __future__ import annotations

from decimal import Context
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ZeroVector

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def rat(value) -> Fraction:
    """Coerce an int, ``p/q`` string or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass int, Fraction or 'p/q' string")
    return Fraction(value)


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Matrix:
    converted = tuple(vec(row) for row in rows)
    if not converted:
        raise DimensionMismatch("matrix must have at least one row")
    width = len(converted[0])
    for row in converted:
        if len(row) != width:
            raise DimensionMismatch("inconsistent row width")
    return converted


def dot(u: Sequence, v: Sequence) -> Fraction:
    """Exact u . v of ints and Fractions: one integer product over both common denominators."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    (a, da), (b, db) = common_denominator(u), common_denominator(v)
    return Fraction(sum(map(mul, a, b)), da * db)


def rank(a: Matrix) -> int:
    """Exact rank, by ``_forward`` on the rows cleared to integers (perfbench wraps it by name)."""
    return _forward(_mirrored([common_denominator(row)[0] for row in a]), len(a[0]) if a else 0)


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Unique coprime integer vector with the direction and orientation of the integer vector v.

    Divides by the gcd of the entries, which is positive, so the orientation
    is preserved.  The result is a tuple; an exact tuple of content 1 comes
    back as that object, so a column an edge pivot kept is still the one proven.
    """
    g = gcd(*v)
    if g == 0:
        raise ZeroVector("primitive of the zero vector")
    return tuple(v if g == 1 else [x // g for x in v])


def common_denominator(values: Sequence) -> tuple[tuple[int, ...], int]:
    """(numerators, D): ints and Fractions as integers over their lcm denominator D > 0."""
    denom = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (denom // x.denominator) for x in values), denom


def _clear_column(work: list[list[int]], k: int, col: int, targets: Iterable[int]) -> None:
    """Fraction-free: zero column col of the rows ``targets`` of work with pivot row k.

    A row with multiplier m != 0 becomes (p/g) row - (m/g) pivot_row, with p
    the pivot and g = gcd(p, m) (only the pivot row's nonzero columns when
    p/g = 1), divided by its content.  Unlike Bareiss's division by the
    previous pivot, which touches every row, this skips the rows with m = 0,
    which on the tower's sparse tight matrices are most of them.
    """
    pivrow = work[k]
    pivot = pivrow[col]
    support = None
    for r in targets:
        row = work[r]
        mult = row[col]
        if mult == 0:
            continue
        if support is None:
            support = [(c, b) for c, b in enumerate(pivrow) if b]
        g = gcd(pivot, mult)
        p, m = pivot // g, mult // g
        if p != 1:
            row = [p * a for a in row]
        for c, b in support:
            row[c] -= m * b
        content = gcd(*row)
        work[r] = [a // content for a in row] if content > 1 else row


def _mirrored(rows: Sequence[Sequence[int]]) -> list[list[int]]:  # rows, columns reversed
    return [row[::-1] for row in map(list, reversed(rows))]


def _forward(work: list[list[int]], width: int) -> int:
    """In-place forward elimination of work's first ``width`` columns: their rank."""
    m, k = len(work), 0
    for col in range(width):
        if k == m:
            break
        if not work[k][col]:
            piv = next((r for r in range(k + 1, m) if work[r][col]), None)
            if piv is None:
                continue
            work[k], work[piv] = work[piv], work[k]
        _clear_column(work, k, col, range(k + 1, m))
        k += 1
    return k


def is_nonsingular(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the square integer matrix has full rank (the forward pass alone)."""
    return _forward(_mirrored(rows), len(rows)) == len(rows)


def full_rank_mod2(masks: Iterable[int]) -> bool:
    """True iff the parity masks (bit j: entry j odd) of n rows of n ints are independent mod 2:
    then their determinant is odd, so not 0.  False leaves it even, and decides nothing."""
    pivots = {}  # lowest set bit -> the one reduced row it is lowest in
    for row in masks:
        while row:
            low = row & -row
            if (pivot := pivots.get(low)) is None:
                pivots[low] = row
                break
            row ^= pivot  # clears low and sets no lower bit
        else:
            return False
    return True


def int_inverse_scaled(
    rows: Sequence[Sequence[int]],
    previous: Sequence[Sequence[int]] | None = None,
    swapped: int | None = None,
    products: Sequence[int] = (),
) -> list[Sequence[int]] | None:
    """Columns of the inverse of an integer matrix, up to positive scaling.

    Returns a list of integer vectors y_0..y_{n-1} with A . y_k = lam_k e_k
    for some lam_k > 0, or None when A is singular.  Without ``previous`` it
    runs ``_forward`` and a back pass on [A' | I] for the mirrored A'.
    ``previous`` are such columns z_k for a matrix that differs from A in row
    p = ``swapped`` only, and ``products`` the new row's r . z_k, which the
    caller computes once (r = A_p); then ``rows`` is not read and one
    fraction-free pivot gives the columns: with a = r . z_p, which is 0
    exactly when A is singular,

        y_p = sgn(a) z_p,   y_k = |a| z_k - (r . z_k) y_p  (k != p),

    so y_k is z_k itself wherever r . z_k = 0.  The columns are not reduced
    by their content.
    """
    if previous is not None:
        a = products[swapped]
        if not a:
            return None
        columns = list(previous)
        y = columns[swapped] = previous[swapped] if a > 0 else [-x for x in previous[swapped]]
        a = abs(a)
        for k, beta in enumerate(products):
            if beta and k != swapped:
                columns[k] = [a * x - beta * e for x, e in zip(previous[k], y)]
        return columns
    n = len(rows)
    work = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(_mirrored(rows))]
    if _forward(work, n) < n:
        return None
    for k in range(n - 1, 0, -1):  # the back pass: clear above the diagonal
        _clear_column(work, k, k, range(k))
    # Row i is now diag_i e_i | E_i with E A' = diag, so A'^-1 e_k = (E_ik / diag_i)_i, integers
    # once scaled by lcm |diag|.  A' = J A J (J reverses), so A^-1 e_k is A'^-1 e_{n-1-k} reversed.
    diag = [work[i][i] for i in range(n)]
    scale = lcm(*diag)
    factors = [scale // d for d in diag]  # exact by construction of the lcm
    scaled = [[a * f for a in reversed(row[n:])] for row, f in zip(work, factors)]
    return list(zip(*scaled[::-1]))


def rational_texts(nums: Sequence[int], denoms: Sequence[int]) -> list[str]:
    """``str(Fraction(a, q))`` for a in nums and q > 0 in denoms, pairwise: one gcd each."""
    pairs = zip(nums, denoms)
    return [str(a // g) if (g := gcd(a, q)) == q else f"{a // g}/{q // g}" for a, q in pairs]


_DECIMAL = Context(prec=12)


def decimal_texts(nums: Sequence[int], denoms: Sequence[int]) -> list[str]:
    """a/q for a in nums and q > 0 in denoms, pairwise, as decimals to 12 significant digits.

    Each division is correctly rounded (half even), so a text depends on the
    value only.  Only the CSV emitters use this; every other format keeps p/q.
    """
    return list(map(str, map(_DECIMAL.divide, nums, denoms)))
