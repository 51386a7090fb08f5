"""Polygons inscribed in the parabola arc y = x^2 - x over [0, 1].

Two interleaved vertex families drive the whole construction.  Both consist
of points h(x) = (x, x^2 - x) at parameters of the form p/(MN - 1):

* family "V" uses numerators 2M(j + l) - l,
* family "W" uses numerators M(2j + 1) - (1 - l),

for j in 0..N/2-1 and l in {0, 1}.  The chord through h(x) and h(y) has slope
x + y - 1, and corresponding edges of the two families have equal parameter
sums, which makes the polygons normally equivalent: the precondition for
deformed products.

A polygon is given by its vertex parameters (``ParabolaVertexList``), so
every vertex lies on the curve by construction.  ``polygon_hrep`` emits the
facets in a canonical order (lower edges left to right, then the closing
chord) so that two normally equivalent polygons share their constraint matrix
row by row and differ only in right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactla
from .errors import BadParameters, NotSorted, SizeMismatch
from .exactla import Matrix, Vector

Point = tuple[Fraction, Fraction]

FAMILY_TAGS = ("V", "W")


def h(x) -> Point:
    """Point (x, x^2 - x) of the parabola arc."""
    x = exactla.rat(x)
    return (x, x * x - x)


@dataclass(frozen=True)
class ParabolaVertexList:
    """Sorted parabola points, identified by their parameters.

    Points are derived from the parameters, so every vertex is on the curve
    by construction.
    """

    params: tuple[Fraction, ...]

    def __post_init__(self):
        params = exactla.vec(self.params)
        for a, b in zip(params, params[1:]):
            if a >= b:
                raise NotSorted("parameters must be strictly increasing")
        for p in params:
            if p < 0 or p > 1:
                raise BadParameters(f"parameter {p} outside [0, 1]")
        object.__setattr__(self, "params", params)

    def __len__(self) -> int:
        return len(self.params)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(h(p) for p in self.params)


def build_family(m: int, n: int, family: str) -> ParabolaVertexList:
    """The N-vertex polygon family "V" or "W" for parameters (M, N).

    Requires M >= 2 even and N >= 2 even.  Vertices come out sorted by
    parameter: the (j, l) loop already enumerates increasing numerators.
    """
    if family not in FAMILY_TAGS:
        raise BadParameters(f"family must be one of {FAMILY_TAGS}, got {family!r}")
    if m < 2 or m % 2 != 0:
        raise BadParameters(f"M must be an even integer >= 2, got {m}")
    if n < 2 or n % 2 != 0:
        raise BadParameters(f"N must be an even integer >= 2, got {n}")
    denom = m * n - 1
    pairs = [(j, l) for j in range(n // 2) for l in (0, 1)]
    if family == "V":
        numerators = [2 * m * (j + l) - l for j, l in pairs]
    else:
        numerators = [m * (2 * j + 1) - (1 - l) for j, l in pairs]
    params = tuple(Fraction(p, denom) for p in numerators)
    return ParabolaVertexList(params)


def merge_sorted(a: ParabolaVertexList, b: ParabolaVertexList) -> ParabolaVertexList:
    """Union of two vertex lists, sorted by parameter; duplicates are an error."""
    params = sorted(a.params + b.params)
    for x, y in zip(params, params[1:]):
        if x == y:
            raise BadParameters(f"duplicate parameter {x} in merged families")
    return ParabolaVertexList(tuple(params))


def polygon_hrep(verts: ParabolaVertexList) -> tuple[Matrix, Vector]:
    """Canonical H-representation of the polygon on the given parabola points.

    Row order: for each consecutive parameter pair x < y the lower edge
    ``(x + y - 1) u1 - u2 <= x y``, then the closing chord between the first
    and last parameters x0 < xl as ``-(x0 + xl - 1) u1 + u2 <= -x0 xl``.
    The chord through h(x), h(y) is the line u2 = (x + y - 1) u1 - x y, and
    the polygon lies above its lower chords and below the closing one.
    """
    params = verts.params
    if len(params) < 3:
        raise BadParameters("polygon needs at least 3 vertices")
    chords = list(zip(params, params[1:]))
    rows = [(x + y - 1, Fraction(-1)) for x, y in chords]
    rhs = [x * y for x, y in chords]
    x0, xl = params[0], params[-1]
    rows.append((-(x0 + xl - 1), Fraction(1)))
    rhs.append(-x0 * xl)
    return tuple(rows), tuple(rhs)


def _canonical_rows(rows: Matrix) -> tuple[tuple[int, ...], ...]:
    # Outer normals compare up to positive scaling; clearing denominators and
    # primitive() preserve orientation, giving each row a fixed canonical
    # representative.
    return tuple(exactla.primitive(exactla.common_denominator(row)[0]) for row in rows)


def check_normally_equivalent(
    fam_a: ParabolaVertexList, fam_b: ParabolaVertexList
) -> bool:
    """True iff the two polygons share all facet normals row by row.

    Both vertex lists must have the same length, at least 4 (the equivalence
    only holds from quadrilaterals up; 2-vertex families exist solely to seed
    the base hull and never enter this check).
    """
    if len(fam_a) != len(fam_b):
        raise SizeMismatch(f"vertex counts differ: {len(fam_a)} vs {len(fam_b)}")
    if len(fam_a) < 4:
        raise BadParameters("normal equivalence needs at least 4 vertices")
    rows_a, _ = polygon_hrep(fam_a)
    rows_b, _ = polygon_hrep(fam_b)
    return _canonical_rows(rows_a) == _canonical_rows(rows_b)
