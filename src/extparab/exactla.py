"""Exact rational scalars, vectors, matrices, rank and integer inverses.

Everything downstream computes over arbitrary-precision rationals: tightness
tests (A_i . x = b_i) and the projection identities must hold with zero
tolerance, and the vertices carry denominators no float can represent.  The
scalar type is the stdlib ``fractions.Fraction``, which is already canonical
(gcd-reduced, positive denominator) and renders as ``p/q`` or ``p``, exactly
the text form used in every file format of this package.

Vectors are tuples of Fractions and matrices are tuples of row tuples, so all
values are immutable and safe to share.  Dimensions stay small (d <= ~20,
m = 2d), so everything is dense.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ZeroVector

Rational = Fraction
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


def zeros(n: int) -> Vector:
    return (Fraction(0),) * n


def unit(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit(n, i) for i in range(n))


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vsub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v: Sequence) -> Vector:
    c = rat(c)
    return tuple(c * a for a in v)


def matvec(a: Matrix, x: Sequence) -> Vector:
    return tuple(dot(row, x) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def outer(u: Sequence, v: Sequence) -> Matrix:
    return tuple(tuple(rat(a) * rat(b) for b in v) for a in u)


def rank(a: Matrix) -> int:
    """Exact rank over the rationals."""
    rows = [list(row) for row in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, m):
            factor = rows[i][col]
            if factor == 0:
                continue
            factor /= pivot
            rows[i] = [e - factor * p for e, p in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def primitive(v: Sequence) -> tuple[int, ...]:
    """Unique coprime integer vector with the direction and orientation of v.

    Scales by the lcm of denominators, then divides by the gcd of the
    entries; both factors are positive so the orientation is preserved.
    """
    fracs = [rat(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ZeroVector("primitive of the zero vector")
    scale = lcm(*(x.denominator for x in fracs)) if len(fracs) > 1 else fracs[0].denominator
    ints = [int(x * scale) for x in fracs]
    g = gcd(*ints) if len(ints) > 1 else abs(ints[0])
    return tuple(n // g for n in ints)


def clear_denominators(values: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by the (positive) lcm of denominators."""
    fracs = [rat(x) for x in values]
    scale = lcm(*(x.denominator for x in fracs)) if len(fracs) > 1 else fracs[0].denominator
    return tuple(int(x * scale) for x in fracs)


def int_inverse_scaled(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]] | None:
    """Columns of the inverse of an integer matrix, up to positive scaling.

    Returns a list of integer vectors y_0..y_{n-1} with A . y_k = lam_k e_k
    for some lam_k > 0, or None when A is singular.  Uses fraction-free
    (Bareiss) Gauss-Jordan elimination, so all intermediate values are
    integers of minor-sized magnitude; this is the hot path behind edge
    enumeration and is much faster than Fraction elimination.
    """
    n = len(rows)
    work = [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k] != 0), None)
        if piv is None:
            return None
        if piv != k:
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
    scale = lcm(*(abs(d) for d in diag)) if n > 1 else abs(diag[0])
    factors = [scale // d for d in diag]  # exact by construction of the lcm
    columns = []
    for k in range(n):
        columns.append(tuple(work[i][n + k] * factors[i] for i in range(n)))
    return columns


def to_decimal(value: Fraction, significant_digits: int = 12) -> str:
    """Render a rational as a decimal string with the given precision.

    Only the CSV emitters use this; every other format keeps exact ``p/q``.
    """
    with localcontext() as ctx:
        ctx.prec = significant_digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)
