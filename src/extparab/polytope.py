"""H-representation polytopes with exact membership, tight sets and edges.

A polytope is stored as ``{x : A x <= b}`` over rationals; two polytopes
compare equal when A and b agree entry for entry.

Every row is also kept scaled to integers and compiled, once per polytope
object and by one ``exec``, into straight-line code over its nonzeros (the
tower's rows have at most three): ``HPolytope._kernel`` holds a slack
function over all rows and an ``A_i . x`` function per row.  Their source
holds only values checked to be ``int``, so no input text can reach it.  A
point's state is its numerators X over the lcm D of its denominators, equal
exactly when the points are; the t-map builds states, ``cleared`` converts
coordinates to one, and ``locate`` makes one a ``ScaledPoint``, with slack
numerators b_i D - A_i . X, computed once, and the tight set read off them.
Edge enumeration and the ratio test take that state; ``step`` moves it along
an edge in integers, reduced by gcd(D, *X).  Only ``slacks`` and the ratio
test's minimum are built as Fractions.  ``is_simple`` decides that the d
tight rows are independent by the forward pass of integer elimination
(``exactla.is_nonsingular``) and keeps nothing; ``deformed.dp_verify`` keeps
its verdict per point state on the frozen polytope object, so it dies with
the object and an equal polytope built separately decides again.  The
ratio test skips the tight rows: none of them can block an edge that
``edge_directions`` returned.

Edge enumeration reads the edges off the inverse columns of the negated
tight rows (``exactla.int_inverse_scaled``), which are the edge directions
themselves: at a walk's first vertex by elimination, and at every later one
by pivoting the edges of the vertex the walk just left, as they are, on the
one row it swapped, since the new edges are -dir_i and the primitive parts
of (A_b . dir_i) dir_f - (A_b . dir_f) dir_i after a move along dir_i that
row b blocks.  Edges are checked in full at the first vertex, and at a
pivoted one only where the pivot changed them (the rest were proven at the
vertex before, by the same kernel on the same direction objects).

Edge enumeration raises DegenerateVertex at a non-simple vertex, because on
the constructed instances degeneracy means a bug, not a case to handle.

The cdd-compatible text formats live here too: ``H-representation`` files
with exact ``p/q`` entries (rows are ``b_i -A_i1 ... -A_id``), and the
matching ``V-representation`` writer for vertex lists.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Callable, Iterable, NamedTuple, Sequence

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
from .exactla import Matrix, Vector

TightSet = tuple[int, ...]
State = tuple[tuple[int, ...], int]  # (numerators, denominator > 0) in lowest terms
Edge = tuple[int, tuple[int, ...]]  # (leaving facet, primitive direction)


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
    def _neg_rows(self) -> tuple[tuple[int, ...], ...]:
        # -A_i of _int_rows: their tight inverse columns are the edge directions.
        return tuple(tuple(-a for a in row) for row, _ in self._int_rows)

    @cached_property
    def _kernel(self) -> _RowKernel:
        # _int_rows as code over their nonzeros, in hex, which no decimal digit limit applies
        # to; globals apart from the names, so no cycle keeps the functions for the collector.
        rows = [([(j, a) for j, a in enumerate(row) if a], b) for row, b in self._int_rows]
        if any(type(v) is not int for terms, b in rows for v in (b, *chain(*terms))):
            raise InternalMismatch("row kernels are compiled from int entries only")
        slacks = ",".join(f"{b:+#x}*D" * bool(b) + _sum_source(terms, -1) for terms, b in rows)
        dots = "".join(f"lambda x: {_sum_source(terms, 1)}," for terms, _ in rows)
        exec(f"def slacks(x, D): return [{slacks}]\nrows = ({dots})", {}, code := {})
        return _RowKernel(code["slacks"], code["rows"])

    @cached_property
    def _point_verdicts(self) -> dict[State, tuple[State, str]]:
        # deformed.dp_verify's (state, verdict) per point state located in this object.
        return {}


def _sum_source(terms: Sequence[tuple[int, int]], sign: int) -> str:
    """Source of +sum(sign a x[j]) over (j, a) pairs; a sum() past 64, which nests no deeper."""
    parts = [f"{sign * a:+#x}*x[{j}]" for j, a in terms]
    return "".join(parts) if len(parts) <= 64 else f"+sum(({','.join(parts)},))"


class _RowKernel(NamedTuple):
    """``slacks(X, D)``: b_i D - A_i . X for every integer row; ``rows[i](x)``: A_i . x."""

    slacks: Callable[[Sequence[int], int], list[int]]
    rows: tuple[Callable[[Sequence[int]], int], ...]


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
    return exactla.common_denominator(x)


def locate(poly: HPolytope, nums: tuple[int, ...], denom: int) -> ScaledPoint:
    """The point nums/denom (in lowest terms) with its slacks; NotFeasible outside."""
    slacks = poly._kernel.slacks(nums, denom)
    if min(slacks) < 0:
        raise NotFeasible("point is outside the polytope")
    return ScaledPoint(nums, denom, slacks, tuple(i for i, s in enumerate(slacks) if not s))


def scaled_point(poly: HPolytope, x: Sequence) -> ScaledPoint:
    """``locate`` for a point given by int or Fraction coordinates."""
    return locate(poly, *cleared(poly, x))


def step(point: ScaledPoint, direction: Sequence[int], mu: Fraction) -> tuple[tuple[int, ...], int]:
    """(numerators, denominator) of point + mu direction, in lowest terms."""
    scale, denom = mu.numerator * point.denom, mu.denominator * point.denom
    nums = [a * mu.denominator + scale * e for a, e in zip(point.nums, direction)]
    g = gcd(denom, *nums)
    return tuple(a // g for a in nums), denom // g


def slacks(poly: HPolytope, x: Sequence) -> Vector:
    """b - A x, in the positively row-scaled integer system."""
    nums, denom = cleared(poly, x)
    return tuple(Fraction(s, denom) for s in poly._kernel.slacks(nums, denom))


def contains(poly: HPolytope, x: Sequence) -> bool:
    """Exact membership test A x <= b."""
    return min(poly._kernel.slacks(*cleared(poly, x))) >= 0


def tight_set(poly: HPolytope, x: Sequence) -> TightSet:
    """Indices of the rows satisfied with equality at a feasible point."""
    return scaled_point(poly, x).tight


def is_simple(poly: HPolytope, point: ScaledPoint) -> bool:
    """True iff exactly d tight rows meet at the point and they have full rank."""
    rows = [poly._int_rows[i][0] for i in point.tight]
    return len(rows) == poly.dim and exactla.is_nonsingular(rows)


def is_simple_vertex(poly: HPolytope, x: Sequence) -> bool:
    """``is_simple`` at a point given by its coordinates; NotFeasible outside."""
    return is_simple(poly, scaled_point(poly, x))


class _ProvenEdges(tuple):
    """Edges ``edge_directions`` proved with the row kernel ``rows``; it alone builds them."""

    def __new__(cls, edges, rows):
        self = super().__new__(cls, edges)
        object.__setattr__(self, "rows", rows)
        return self

    def __setattr__(self, *_):
        raise AttributeError("a proven edge list is immutable")


def edge_directions(
    poly: HPolytope, point: ScaledPoint, previous: Sequence[Edge] | None = None
) -> Sequence[Edge]:
    """The d primitive edge directions leaving a simple vertex.

    Returns one pair (leaving_facet, direction) per tight row i: the unique
    primitive integer vector with A_j . dir = 0 for every tight j != i and
    A_i . dir < 0.  The directions are the inverse columns of the negated
    tight matrix.  ``previous`` is the edge list of the vertex a walk just
    left, in its tight order, whose tight set differs from this one in one
    row (else InternalMismatch); its directions are pivoted on that row
    (``exactla.int_inverse_scaled`` with the swapped row) instead of
    eliminating the tight matrix again.  The pattern is proven by induction:
    all d x d products A_j . dir_k are checked, unless ``previous`` is a list
    this function returned with the same row kernel; then the entering row
    meets every direction and the other rows only those not ``previous``'s
    own objects, whose products with them were proven at the last vertex.
    """
    tight, dim, kernel = point.tight, poly.dim, poly._kernel
    if len(tight) != dim:
        raise DegenerateVertex(f"{len(tight)} tight rows at a point of dimension {dim}")
    entering, fresh = None, range(dim)  # fresh: the columns every tight row is checked on
    if previous is None:
        columns = exactla.int_inverse_scaled([poly._neg_rows[i] for i in tight])
    else:
        facets = [facet for facet, _ in previous]
        left, entered = set(facets).difference(tight), set(tight).difference(facets)
        if len(left) != 1 or len(entered) != 1:
            raise InternalMismatch(
                f"tight rows {sorted(entered)} replace {sorted(left)}; an edge move swaps one row"
            )
        swapped = facets.index(left.pop())
        facets[swapped] = entered = entered.pop()
        old = [direction for _, direction in previous]
        columns = exactla.int_inverse_scaled([poly._neg_rows[i] for i in facets], old, swapped)
    if columns is None:
        raise DegenerateVertex("tight rows are rank-deficient")
    directions = [exactla.primitive(col) for col in columns]
    if previous is not None:
        place = bisect_left(tight, entered)  # where the entering row's column goes
        directions.insert(place, directions.pop(swapped))
        old.insert(place, old.pop(swapped))
        if type(previous) is _ProvenEdges and previous.rows is kernel:
            entering = entered
            fresh = [k for k in range(dim) if directions[k] is not old[k]]
    # Defensive: edge ray k keeps every tight row j != k and strictly leaves row k.
    for j, i in enumerate(tight):
        row = kernel.rows[i]
        for k in range(dim) if i == entering else fresh:
            prod = row(directions[k])
            if prod >= 0 if j == k else prod:
                raise InternalMismatch(
                    f"edge {k} breaks the tightness pattern at tight row {j}"
                )
    return _ProvenEdges(zip(tight, directions), kernel)


def ratio_test(poly: HPolytope, point: ScaledPoint, direction: Sequence) -> Fraction | None:
    """Largest feasible step along a direction: mu_max, or None on an unbounded ray.

    mu_max = min over rows with A_i . direction > 0 of
    (b_i - A_i x)/(A_i . direction).  Which rows block is read off the
    endpoint's tight set, so only the minimum is kept.  Precondition: the
    direction is an edge ``edge_directions`` returned at the point, so
    A_j . dir <= 0 on every tight row j and only nonzero slacks are read.
    """
    if all(e == 0 for e in direction):
        raise ZeroDirection("ratio test along the zero direction")
    # Ratios slack_i / (denom advance_i) are compared by cross-multiplication,
    # so only the minimum becomes a Fraction.
    best, adv_best = None, 0
    for s, row in zip(point.slacks, poly._kernel.rows):
        if s and (adv := row(direction)) > 0 and (best is None or s * adv_best < best * adv):
            best, adv_best = s, adv
    return None if best is None else Fraction(best, point.denom * adv_best)


# ---------------------------------------------------------------------------
# cdd-compatible text formats


def hrep_to_ine(poly: HPolytope) -> str:
    """Serialize as a cdd H-representation with exact rational entries."""
    lines = ["H-representation", "begin", f"{poly.num_facets} {poly.dim + 1} rational"]
    for row, rhs in zip(poly.A, poly.b):
        entries = [str(rhs)] + [str(-a) for a in row]
        lines.append(" ".join(entries))
    lines.append("end")
    return "\n".join(lines) + "\n"


def hrep_from_ine(text: str) -> HPolytope:
    """Parse a cdd H-representation produced by :func:`hrep_to_ine`."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("*")]
    try:
        start = lines.index("begin")
    except ValueError:
        raise FormatError("missing 'begin' line") from None
    if "H-representation" not in lines[:start]:
        raise FormatError("missing 'H-representation' header")
    rows = []
    rhs = []
    try:
        header = lines[start + 1].split()
        if len(header) != 3 or header[2] != "rational":
            raise FormatError(f"unsupported size line: {lines[start + 1]!r}")
        m, cols = int(header[0]), int(header[1])
        if m <= 0 or cols < 2:
            raise FormatError(f"unsupported size line: {lines[start + 1]!r}")
        for ln in lines[start + 2 : start + 2 + m]:
            parts = ln.split()
            if len(parts) != cols:
                raise FormatError(f"row has {len(parts)} entries, expected {cols}")
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


def vrep_to_ext(points: Iterable[Sequence]) -> str:
    """Serialize a vertex list as a cdd V-representation (rows ``1 x1 .. xd``)."""
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
