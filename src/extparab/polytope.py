"""H-representation polytopes with exact membership, tight sets and edges.

A polytope is stored as ``{x : A x <= b}`` over rationals; two polytopes
compare equal when A and b agree entry for entry.

Every row is also kept scaled to integers and compiled, with one ``exec``
per polytope object and form, into straight-line code over its nonzeros (at
most three on the tower): the slack function ``_slacks`` on the first
``locate``, the ``A_i . x`` functions ``_rows`` on the first edge
enumeration or ratio test.  Their source holds only values checked to be
``int``, so no input text can reach it.  A point's state is its numerators X
over the lcm D of its denominators, equal exactly when the points are;
``locate`` makes one a ``ScaledPoint``, with slack numerators
b_i D - A_i . X, computed once, and the tight set read off them.  The ratio
test's minimum is the integer pair (slack, D advance), and ``step`` moves
the state by such a pair, reduced by gcd(D, *X).  Only ``slacks`` builds
Fractions.  ``is_simple`` decides that the d tight rows are independent by
the parity of their determinant (``exactla.full_rank_mod2`` on the rows'
parity masks, kept per polytope), which proves an odd one nonzero, and only
where it is even by integer elimination (``exactla.is_nonsingular``).  On
the tower's twin, whose rows are divided by their column and row contents,
parity has decided every tight set checked; on the tower's own rows, none.
``deformed.dp_verify`` keeps its verdict per point state on the frozen
polytope object, so an equal polytope built separately decides again.

Edge enumeration reads the edges off the inverse columns of the negated
tight rows (``exactla.int_inverse_scaled``): at a walk's first vertex by
elimination, and at every later one by pivoting the last vertex's edges on
the row the move swapped in, since the new edges are -dir_i and the
primitive parts of (A_b . dir_i) dir_f - (A_b . dir_f) dir_i after a move
along dir_i that row b, the ratio test's lowest blocking row, blocks.  A
pivot starts only from a list proven for the same polytope object, and
checks only the ``fresh`` positions: b's and those whose direction is not
the very object proven for that facet at the vertex before.  A kept edge
meets only the entering row anew, in the product the pivot took.  The ratio
test skips the tight rows, and edge enumeration raises DegenerateVertex at
a non-simple vertex: on the constructed instances that means a bug.

``equilibrated`` gives a polytope's twin in the coordinates y = s * x: its
integer rows divided by their column contents, the scales s
(``column_scales``), and then by their row contents, which on the tower
leaves entries of at most 4 bits.  The tower keeps one twin, on which its
vertex maps, checks and walks all run.

The cdd-compatible text formats live here too: ``H-representation`` files
with exact ``p/q`` entries (rows are ``b_i -A_i1 ... -A_id``; a
``linearity`` line is refused), and the matching ``V-representation``
writer for vertices given as states.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, repeat
from math import gcd
from typing import Callable, NamedTuple, Sequence

from . import exactla
from .errors import (
    BadParameters,
    DegenerateVertex,
    DimensionMismatch,
    FormatError,
    InternalMismatch,
    NotFeasible,
    ZeroDirection,
)
from .exactla import Matrix, Vector, rational_texts

TightSet = tuple[int, ...]
State = tuple[tuple[int, ...], int]  # (numerators, denominator > 0) in lowest terms
BATCH = 64  # states the writers transpose at a time: one column call each, a small transient
Edge = tuple[int, tuple[int, ...]]  # (leaving facet, primitive direction)
_INE_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the entry forms hrep_to_ine writes
_INE_SIZE = re.compile(r"([0-9]+) ([0-9]+) rational")  # its size line, spaces normalized


@dataclass(frozen=True)
class HPolytope:
    """Constraint system A x <= b; equal and hashed by (A, b), as the ``.ine`` format stores it."""

    A: Matrix
    b: Vector

    def __post_init__(self):
        a = exactla.mat(self.A)
        rhs = exactla.vec(self.b)
        if len(a) != len(rhs):
            raise DimensionMismatch("A and b row counts differ")
        for i, row in enumerate(a):
            if all(e == 0 for e in row):
                raise BadParameters(f"all-zero constraint row {i}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", rhs)

    @property
    def num_facets(self) -> int:
        return len(self.A)

    @cached_property
    def dim(self) -> int:
        return len(self.A[0])

    @cached_property
    def _int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        # Each row (A_i | b_i) scaled by a positive integer so that all
        # entries are integers; the scaling preserves the inequality, the
        # tight set and every ratio (b_i - A_i x)/(A_i d).
        scaled = []
        for row, rhs in zip(self.A, self.b):
            ints, _ = exactla.common_denominator(tuple(row) + (rhs,))
            scaled.append((ints[:-1], ints[-1]))
        return tuple(scaled)

    @cached_property
    def _parity_rows(self) -> tuple[int, ...]:
        # Each integer row's parity mask: bit j set where coefficient j is odd.
        return tuple(sum((a & 1) << j for j, a in enumerate(row)) for row, _ in self._int_rows)

    @cached_property
    def _neg_rows(self) -> tuple[tuple[int, ...], ...]:
        # -A_i of _int_rows: their tight inverse columns are the edge directions.
        return tuple(tuple(-a for a in row) for row, _ in self._int_rows)

    @cached_property
    def _slacks(self) -> Callable[[Sequence[int], int], list[int]]:
        # slacks(X, D): b_i D - A_i . X for every integer row; compiled on the first locate.
        source = ",".join(f"{b:+#x}*D" * bool(b) + _sum_source(t, -1) for t, b in _terms(self))
        exec(f"def kernel(x, D): return [{source}]", {}, code := {})
        return code["kernel"]

    @cached_property
    def _rows(self) -> tuple[Callable[[Sequence[int]], int], ...]:
        # rows[i](x) = A_i . x; compiled on the first edge_directions or ratio_test.
        source = "".join(f"lambda x: {_sum_source(t, 1)}," for t, _ in _terms(self))
        exec(f"kernel = ({source})", {}, code := {})
        return code["kernel"]

    @cached_property
    def _point_verdicts(self) -> dict[State, str]:
        # deformed.dp_verify's verdict per point state located in this object.
        return {}


def _terms(poly: HPolytope) -> list[tuple[list[tuple[int, int]], int]]:
    """(nonzero (column, coefficient) pairs, b_i) of each integer row, all checked ``int``.

    A kernel's source writes them in hex, which no decimal digit limit applies to, and runs
    with globals apart from the dict its name lands in, so no cycle waits for the collector.
    """
    rows = [([(j, a) for j, a in enumerate(row) if a], b) for row, b in poly._int_rows]
    if any(type(v) is not int for terms, b in rows for v in (b, *chain(*terms))):
        raise InternalMismatch("row kernels are compiled from int entries only")
    return rows


def _sum_source(terms: Sequence[tuple[int, int]], sign: int) -> str:
    """Source of +sum(sign a x[j]) over (j, a) pairs; a sum() past 64, which nests no deeper."""
    parts = [f"{sign * a:+#x}*x[{j}]" for j, a in terms]
    return "".join(parts) if len(parts) <= 64 else f"+sum(({','.join(parts)},))"


class ScaledPoint(NamedTuple):
    """A feasible point nums/denom in lowest terms (denom > 0), with its slacks.

    ``slacks[i]`` is b_i denom - A_i . nums in the integer system, so row i is
    tight exactly where it is 0; ``tight`` lists those rows.
    """

    nums: tuple[int, ...]
    denom: int
    slacks: list[int]
    tight: TightSet


def cleared(poly: HPolytope, x: Sequence) -> State:
    """x as integer numerators over the lcm of its denominators: equal iff the points are."""
    if len(x) != poly.dim:
        raise DimensionMismatch(f"point has dim {len(x)}, polytope {poly.dim}")
    return exactla.common_denominator(exactla.vec(x))


def column_scales(poly: HPolytope) -> tuple[int, ...]:
    """``equilibrated``'s scales: the contents of the integer rows' columns (1 if all 0)."""
    return tuple(gcd(*column) or 1 for column in zip(*(row for row, _ in poly._int_rows)))


def equilibrated(poly: HPolytope) -> tuple[HPolytope, tuple[int, ...]]:
    """(twin, scales): poly in the coordinates y = scales * x, with integer rows in poly's order.

    Each column of the integer rows is divided by its content, that
    coordinate's scale, then each row (A_i | b_i) by its content.  Repeating
    both changes nothing (a prime that divided a column after the row
    divisions divided every entry of it before), so the twin's own scales
    are 1.  A x <= b holds iff A' y <= b' does, row by row, with the same
    tight rows; the scales are positive ints fixed by the rows alone.
    """
    scales = column_scales(poly)
    rows = []
    for row, b in poly._int_rows:
        row = [*(a // s for a, s in zip(row, scales)), b]
        rows.append([a // g for a in row] if (g := gcd(*row)) > 1 else row)
    return HPolytope(tuple(row[:-1] for row in rows), tuple(row[-1] for row in rows)), scales


def locate(poly: HPolytope, nums: tuple[int, ...], denom: int) -> ScaledPoint:
    """The point nums/denom (in lowest terms) with its slacks; NotFeasible outside."""
    slacks = poly._slacks(nums, denom)
    if min(slacks) < 0:
        raise NotFeasible("point is outside the polytope")
    return ScaledPoint(nums, denom, slacks, tuple([i for i, s in enumerate(slacks) if not s]))


def scaled_point(poly: HPolytope, x: Sequence) -> ScaledPoint:
    """``locate`` for a point given by its coordinates."""
    return locate(poly, *cleared(poly, x))


def step(point: ScaledPoint, direction: Sequence[int], mu: tuple[int, int]) -> State:
    """(numerators, denominator) of point + mu direction, for mu = num/den (den > 0), reduced."""
    num, den = mu
    scale, denom = num * point.denom, den * point.denom
    nums = [a * den + scale * e for a, e in zip(point.nums, direction)]
    g = gcd(denom, *nums)
    return tuple([a // g for a in nums]), denom // g


def slacks(poly: HPolytope, x: Sequence) -> Vector:
    """b - A x, in the positively row-scaled integer system."""
    nums, denom = cleared(poly, x)
    return tuple(Fraction(s, denom) for s in poly._slacks(nums, denom))


def contains(poly: HPolytope, x: Sequence) -> bool:
    """Exact membership test A x <= b."""
    return min(poly._slacks(*cleared(poly, x))) >= 0


def tight_set(poly: HPolytope, x: Sequence) -> TightSet:
    """Indices of the rows satisfied with equality at a feasible point."""
    return scaled_point(poly, x).tight


def is_simple(poly: HPolytope, point: ScaledPoint) -> bool:
    """True iff exactly d tight rows meet at the point and they have full rank: by parity where
    their determinant is odd (``exactla.full_rank_mod2``), else by integer elimination."""
    tight, parity = point.tight, poly._parity_rows
    return len(tight) == poly.dim and (
        exactla.full_rank_mod2([parity[i] for i in tight])
        or exactla.is_nonsingular([poly._int_rows[i][0] for i in tight])
    )


def is_simple_vertex(poly: HPolytope, x: Sequence) -> bool:
    """``is_simple`` at a point given by its coordinates; NotFeasible outside."""
    return is_simple(poly, scaled_point(poly, x))


class _ProvenEdges(tuple):
    """Edges ``edge_directions`` proved for ``poly``, which it alone builds, as ``tight`` facets
    and ``directions``; ``fresh`` lists the positions new since the list they were pivoted from."""

    def __new__(cls, poly, tight, directions, fresh):
        self = super().__new__(cls, zip(tight, directions))
        self.__dict__.update(poly=poly, tight=tight, directions=tuple(directions), fresh=fresh)
        return self

    def __setattr__(self, *_):
        raise AttributeError("a proven edge list is immutable")


def edge_directions(
    poly: HPolytope, point: ScaledPoint, pivot: tuple[_ProvenEdges, int, int] | None = None
) -> _ProvenEdges:
    """The d primitive edge directions leaving a simple vertex, with their ``fresh`` positions.

    Returns one pair (leaving_facet, direction) per tight row i: the unique
    primitive integer vector with A_j . dir = 0 for every tight j != i and
    A_i . dir < 0.  Given ``pivot``, this function's list for the same
    polytope object at the vertex a walk just left with the move's leaving
    facet and entering row, it pivots that list instead, if the tight rows
    are the list's with exactly that swap (else InternalMismatch).  Every
    product A_j . dir_k is checked, but after a pivot a kept row meets only
    the fresh directions, all but the very objects proven at the vertex
    before: it met those there (a new object equal to one is checked again).
    """
    tight, dim, rows = point.tight, poly.dim, poly._rows
    if len(tight) != dim:
        raise DegenerateVertex(f"{len(tight)} tight rows at a point of dimension {dim}")
    if pivot is None:
        entering = old = None
        columns = exactla.int_inverse_scaled([poly._neg_rows[i] for i in tight])
    else:
        previous, leaving, entering = pivot
        if type(previous) is not _ProvenEdges or previous.poly is not poly:
            raise InternalMismatch("edges are pivoted only from a list proven for this polytope")
        before, out = previous.tight, bisect_left(previous.tight, leaving)
        kept = before[:out] + before[out + 1 :]
        place = bisect_left(kept, entering)  # the leaving row's column moves here
        if before[out : out + 1] != (leaving,) or tight != (*kept[:place], entering, *kept[place:]):
            raise InternalMismatch(
                f"tight rows {tight} are not {before} with row {leaving} swapped for {entering}"
            )
        old = list(previous.directions)
        old.insert(place, old.pop(out))
        entry = rows[entering]
        products = [-entry(z) for z in old]  # r . z_k for the new row r = -A_entering
        columns = exactla.int_inverse_scaled((), old, place, products)  # reads no row
    if columns is None:
        raise DegenerateVertex("tight rows are rank-deficient")
    directions = [exactla.primitive(col) for col in columns]
    # Defensive: edge ray k keeps every tight row j != k and strictly leaves row k.  A kept
    # column met every row but the entering one at the vertex before, and meets that one in
    # the product the pivot took, which must be 0.
    fresh = []
    for k, direction in enumerate(directions):
        if old is None or k == place or direction is not old[k]:
            fresh.append(k)
        elif products[k]:
            raise InternalMismatch(f"edge {k} breaks the tightness pattern at tight row {place}")
    for j, i in enumerate(tight):
        row = rows[i]
        for k in fresh:
            prod = row(directions[k])
            if prod >= 0 if j == k else prod:
                raise InternalMismatch(f"edge {k} breaks the tightness pattern at tight row {j}")
    return _ProvenEdges(poly, tight, directions, tuple(fresh))


def ratio_test(poly: HPolytope, point: ScaledPoint, direction: Sequence) -> tuple:
    """(mu_max, blocking row): the largest feasible step along a direction, min over rows with
    A_i . direction > 0 of (b_i - A_i x)/(A_i . direction), as the unreduced pair (slack_i,
    denom advance_i) of positive ints, and the lowest row attaining it, both None on an
    unbounded ray.  The direction must be an edge ``edge_directions`` returned at the point, so
    A_j . dir <= 0 on every tight row j and only nonzero slacks are read."""
    if not any(direction):
        raise ZeroDirection("ratio test along the zero direction")
    # Ratios slack_i / (denom advance_i) compare by cross-multiplication; a tie keeps the first.
    best, adv_best, blocking = None, 0, None
    for i, s, row in zip(count(), point.slacks, poly._rows):
        if s and (adv := row(direction)) > 0 and (best is None or s * adv_best < best * adv):
            best, adv_best, blocking = s, adv, i
    if best is None:
        return None, None
    return (best, point.denom * adv_best), blocking


# ---------------------------------------------------------------------------
# cdd-compatible text formats


def hrep_to_ine(poly: HPolytope) -> str:
    """Serialize as a cdd H-representation with exact rational entries."""
    lines = ["H-representation", "begin", f"{poly.num_facets} {poly.dim + 1} rational"]
    lines += [" ".join([str(rhs), *(str(-a) for a in row)]) for row, rhs in zip(poly.A, poly.b)]
    return "\n".join(lines) + "\nend\n"


def hrep_from_ine(text: str) -> HPolytope:
    """Parse a cdd H-representation produced by :func:`hrep_to_ine`: integer and p/q entries."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("*")]
    try:
        start = lines.index("begin")
    except ValueError:
        raise FormatError("missing 'begin' line") from None
    if "H-representation" not in lines[:start]:
        raise FormatError("missing 'H-representation' header")
    if any(ln.split()[0] == "linearity" for ln in lines):
        raise FormatError("'linearity' (equality rows) is not supported: rows are A_i x <= b_i")
    rows, rhs = [], []
    try:
        size = _INE_SIZE.fullmatch(" ".join(lines[start + 1].split()))
        m, cols = map(int, size.groups()) if size else (0, 0)
        if m <= 0 or cols < 2:
            raise FormatError(f"unsupported size line: {lines[start + 1]!r}")
        for ln in lines[start + 2 : start + 2 + m]:
            parts = ln.split()
            if len(parts) != cols:
                raise FormatError(f"row has {len(parts)} entries, expected {cols}")
            if bad := [p for p in parts if not _INE_NUMBER.fullmatch(p)]:
                raise FormatError(f"malformed number {bad[0]!r}: entries are integers or p/q")
            values = [Fraction(p) for p in parts]
            if not any(values[1:]):
                raise FormatError(f"all-zero constraint row {len(rows)}")
            rhs.append(values[0])
            rows.append(tuple(-v for v in values[1:]))
        if lines[start + 2 + m] != "end":
            raise FormatError("missing 'end' line")
    except IndexError:
        raise FormatError("file ends before the 'end' line") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"malformed number: {exc}") from None
    return HPolytope(tuple(rows), tuple(rhs))


def vrep_to_ext(points: Sequence[State]) -> str:
    """Serialize vertex states as a cdd V-representation (rows ``1 x1 .. xd``), by columns."""
    if not points:
        raise FormatError("empty vertex list")
    dim = len(points[0][0])
    for i, (nums, _) in enumerate(points):
        if len(nums) != dim:
            raise DimensionMismatch(f"point {i} has dim {len(nums)}, point 0 has dim {dim}")
    lines = ["V-representation", "begin", f"{len(points)} {dim + 1} rational"]
    for k in range(0, len(points), BATCH):
        nums, denoms = zip(*points[k : k + BATCH])
        lines += map(" ".join, zip(repeat("1"), *[rational_texts(x, denoms) for x in zip(*nums)]))
    return "\n".join(lines) + "\nend\n"
