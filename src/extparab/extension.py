"""Recursive tower of deformed products projecting onto a parabola grid.

For parameters (n, d) with d and n/(2d) >= 2 even, the construction produces
a polytope Q in R^d with n/2 facets and M = (n/d)^{d/2} vertices, together
with two linear functionals phi, phi' whose joint map sends the vertex set
bijectively onto the grid points (t/(M-1), (t/(M-1))^2 - t/(M-1)) of the
parabola arc, t = 0..M-1.  No vertex lands in the interior of the shadow.

The tower starts from the hull of the two half-size seed families (a convex
polygon whose vertices are exactly h(t/(N-1)) for N = n/d) and applies one
deformed product per pair of dimensions, always with the fiber family pair
of the current size.  phi is the second-to-last coordinate; phi' is a fixed
weighted sum of the even coordinates, flattened at build time so that
orthogonality of the two coefficient vectors is a direct dot product and the
quadratic objective can be pulled back without recursion.

``vertex_for_t`` realizes the integer-indexed vertex map: decompose t at the
top level into (fiber vertex (j, l), recursive index s), recurse, and append
the interpolated fiber point.  ``verify_construction`` machine-checks every
claimed property of the tower with zero tolerance.

Both vertex maps and every check run in one integer coordinate system, the
twin y = s * x from ``polytope.equilibrated`` (the tower's ``scales`` and
``twin``, each made on first use); each stage's twin (``stage_polytope``) is
the top twin's first rows on its first coordinates.  The t-map builds each
vertex once per tower, keyed by (dim, t), as its y state in lowest terms:
after a sweep check, ``deformed.extend`` appends to the inner state the fiber
pair, scaled by the level's two tail scales, at the sweep value s/(m-1), as
a reduced tail, sharing the inner numerators.  ``stage_vertices`` keeps each
stage's product-map (``dp_vrep``) y states, which share them the same way.
The memos die with the frozen tower (``dataclasses.replace`` starts empty
ones), and the maps stay apart, so ``deformed.dp_verify`` is run on each
map's states.  ``vertex_for_t`` and ``all_vertices`` (the ``.ext`` file,
lifted column by column) map back to x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, mul

from . import exactla, polygons, polytope
from .deformed import Functional, dp_hrep, dp_verify, dp_vrep, extend
from .errors import BadParameters, InternalMismatch, OutOfRange
from .exactla import Matrix, Vector
from .polygons import ParabolaVertexList
from .polytope import BATCH, HPolytope, State


@dataclass(frozen=True)
class ConstructionParams:
    """Admissible (n, d): d even >= 2 and n/(2d) an even integer >= 2."""

    n: int
    d: int

    def __post_init__(self):
        if self.d < 2 or self.d % 2 != 0:
            raise BadParameters(f"d must be an even integer >= 2, got {self.d}")
        if self.n % (2 * self.d) != 0:
            raise BadParameters(f"n must be a multiple of 2d, got n={self.n}, d={self.d}")
        base = self.n // (2 * self.d)
        if base < 2 or base % 2 != 0:
            raise BadParameters(
                f"n/(2d) must be an even integer >= 2, got {base} for n={self.n}, d={self.d}"
            )

    @property
    def fiber_count(self) -> int:
        """N: vertices per fiber polygon (= n/d)."""
        return self.n // self.d

    @property
    def base_pairs(self) -> int:
        """Vertices per seed family of the base hull (= n/(2d))."""
        return self.n // (2 * self.d)

    @property
    def facet_count(self) -> int:
        return self.n // 2

    @cached_property
    def vertex_count(self) -> int:
        """M = (n/d)^{d/2}, computed once per parameter object, which is frozen."""
        return self.fiber_count ** (self.d // 2)

    def level_m(self, i: int) -> int:
        """Vertex count of the dimension-i stage: (n/d)^{i/2}."""
        return self.fiber_count ** (i // 2)


@dataclass(frozen=True)
class Level:
    """One deformed-product step, extending the dimension-i stage by 2."""

    source_dim: int
    m_level: int
    fiber_start: ParabolaVertexList
    fiber_end: ParabolaVertexList
    b_rows: Matrix
    beta: Vector
    beta_prime: Vector
    product: HPolytope


@dataclass(frozen=True)
class ExtendedParabola:
    params: ConstructionParams
    poly: HPolytope
    phi: Functional
    phi_prime: Functional
    base: HPolytope
    base_vertices: ParabolaVertexList
    levels: tuple[Level, ...]

    @cached_property
    def scales(self) -> tuple[int, ...]:
        """s of the twin's coordinates y = s * x, read off ``poly`` without building the twin."""
        return polytope.column_scales(self.poly)

    @cached_property
    def twin(self) -> HPolytope:
        """``poly`` in the coordinates y = s * x (``polytope.equilibrated``), built on first use."""
        return polytope.equilibrated(self.poly)[0]

    @cached_property
    def _vertices(self) -> dict[tuple[int, int], State]:
        # The t-map's vertex t of the dimension-dim stage as its y state, keyed by (dim, t).
        return {}

    @cached_property
    def _fibers(self) -> tuple[tuple[State, ...], ...]:
        # Per level, each aligned fiber pair (v_k, w_k) in y: integers V_k, then W_k, over E_k.
        pairs = (zip(*_twin_fibers(self, level)) for level in self.levels)
        return tuple(tuple(exactla.common_denominator(v + w) for v, w in p) for p in pairs)

    @cached_property
    def _stage_twins(self) -> dict[int, HPolytope]:
        # stage_polytope's twins keyed by dim; the top stage's is the tower's own.
        return {self.params.d: self.twin}

    @cached_property
    def _stage_vertices(self) -> dict[int, tuple[State, ...]]:
        # stage_vertices' product-map y states keyed by dim, from the base grid h(t/(N-1)).
        return {2: tuple(_twin_state(self, x) for x in self.base_vertices.points)}


def _twin_state(ext: ExtendedParabola, x: Vector) -> State:
    """The y state of a point x given by its leading coordinates."""
    return exactla.common_denominator(tuple(map(mul, x, ext.scales)))


def _twin_fibers(ext: ExtendedParabola, level: Level) -> tuple[list[Vector], list[Vector]]:
    """The level's fiber vertices v_k and w_k in y, scaled by its two tail scales."""
    tail = ext.scales[level.source_dim : level.source_dim + 2]
    fibers = level.fiber_start.points, level.fiber_end.points
    return tuple([tuple(map(mul, x, tail)) for x in points] for points in fibers)


def level_functional(i: int) -> Functional:
    """The sweep functional of the dimension-i stage: x_1 for i = 2, else x_{i-1}."""
    return Functional.coordinate(i, 0 if i == 2 else i - 2)


def build(params: ConstructionParams) -> ExtendedParabola:
    """Construct the full tower for (n, d)."""
    n_fiber = params.fiber_count

    start_seed = polygons.build_family(2, params.base_pairs, "V")
    end_seed = polygons.build_family(2, params.base_pairs, "W")
    base_verts = polygons.merge_sorted(start_seed, end_seed)
    # Known fact, asserted: the merged seed parameters enumerate the grid
    # t/(N-1), t = 0..N-1, so the base hull already has one vertex per value.
    expected = tuple(Fraction(t, n_fiber - 1) for t in range(n_fiber))
    if base_verts.params != expected:
        raise BadParameters("seed families do not merge into the full base grid")
    current = base = HPolytope(*polygons.polygon_hrep(base_verts))

    levels = []
    for i in range(2, params.d, 2):
        m_level = params.level_m(i)
        fiber_start = polygons.build_family(m_level, n_fiber, "V")
        fiber_end = polygons.build_family(m_level, n_fiber, "W")
        b_rows, beta = polygons.polygon_hrep(fiber_start)
        b_rows_end, beta_prime = polygons.polygon_hrep(fiber_end)
        if b_rows != b_rows_end:
            raise BadParameters(f"fiber polygons at dimension {i} are not normally equivalent")
        current = dp_hrep(current, level_functional(i), b_rows, beta, beta_prime)
        level = Level(i, m_level, fiber_start, fiber_end, b_rows, beta, beta_prime, current)
        levels.append(level)

    phi = level_functional(params.d)
    m_top = params.vertex_count
    weights = [Fraction(0)] * params.d
    for k in range(1, params.d // 2 + 1):
        weights[2 * k - 1] = Fraction(params.level_m(2 * k) - 1, m_top - 1) ** 2
    phi_prime = Functional(tuple(weights))

    if exactla.dot(phi.coeffs, phi_prime.coeffs) != 0:
        raise BadParameters("projection functionals are not orthogonal")

    return ExtendedParabola(params, current, phi, phi_prime, base, base_verts, tuple(levels))


def decompose_t(t: int, m_level: int, n_fiber: int) -> tuple[int, int, int]:
    """Split a vertex index t in 0..N m - 1 into (fiber j, fiber l, recursive index s).

    N = ``n_fiber`` is the fiber size.  The fiber vertex is the (2j + l)-th in
    sorted order, with k = t // m_level = 2j + l, and the recursive index is

        s = (1 - l)(t - 2 j m) + l((2j + 2) m - 1 - t),

    which always lands in 0..m-1.
    """
    if t < 0:
        raise OutOfRange(f"t = {t} negative")
    if t > n_fiber * m_level - 1:
        raise OutOfRange(f"t = {t} exceeds {n_fiber}*{m_level} - 1")
    k = t // m_level
    j, l = divmod(k, 2)
    s = (1 - l) * (t - 2 * j * m_level) + l * ((2 * j + 2) * m_level - 1 - t)
    if not 0 <= s <= m_level - 1:
        raise InternalMismatch(f"t = {t} maps to s = {s} outside 0..{m_level - 1}")
    return j, l, s


def state_for_t(ext: ExtendedParabola, t: int) -> State:
    """The unique vertex of Q with phi value t/(M - 1), as its integer state in y = s * x."""
    m_top = ext.params.vertex_count
    if not 0 <= t <= m_top - 1:
        raise OutOfRange(f"t = {t} outside 0..{m_top - 1}")
    return _vertex_at_dim(ext, ext.params.d, t)


def vertex_for_t(ext: ExtendedParabola, t: int) -> Vector:
    """The unique vertex of Q with phi value t/(M - 1), in x."""
    nums, denom = state_for_t(ext, t)
    return tuple(Fraction(a, denom * s) for a, s in zip(nums, ext.scales))


def _vertex_at_dim(ext: ExtendedParabola, dim: int, t: int) -> State:
    memo = ext._vertices
    state = memo.get((dim, t))
    if state is not None:
        return state
    if dim == 2:
        state = _twin_state(ext, polygons.h(Fraction(t, ext.params.fiber_count - 1)))
    else:
        level = ext.levels[(dim - 4) // 2]
        j, l, s = decompose_t(t, level.m_level, ext.params.fiber_count)
        nums, denom = inner = _vertex_at_dim(ext, dim - 2, s)
        steps = level.m_level - 1
        # Coordinate dim - 4 (y over its scale), which level_functional(dim - 2) reads, is s/steps.
        if nums[dim - 4] * steps != s * denom * ext.scales[dim - 4]:
            raise InternalMismatch(f"inner vertex {s} misses sweep value {Fraction(s, steps)}")
        state = extend(inner, ext._fibers[(dim - 4) // 2][2 * j + l], s, steps)
    memo[dim, t] = state
    return state


def all_vertices(ext: ExtendedParabola) -> list[State]:
    """``state_for_t`` for every t, mapped back to x: x_i = y_i (L/s_i)/(D L) for L = lcm(s),
    reduced by one gcd, column by column over ``polytope.BATCH`` transposed states at a time."""
    wide, d, m, states = lcm(*ext.scales), ext.params.d, ext.params.vertex_count, []
    for k in range(0, m, BATCH):
        nums, denoms = zip(*[_vertex_at_dim(ext, d, t) for t in range(k, min(k + BATCH, m))])
        columns = [list(map(mul, x, repeat(wide // s))) for x, s in zip(zip(*nums), ext.scales)]
        denoms = [q * wide for q in denoms]
        contents = list(map(gcd, denoms, *columns))
        columns = [map(floordiv, x, contents) for x in columns]
        states += zip(zip(*columns), map(floordiv, denoms, contents))
    return states


def stage_polytope(ext: ExtendedParabola, dim: int) -> HPolytope:
    """The dimension-dim stage of the tower (the base hull for dim = 2) in y = s * x: the twin's
    first rows on its first dim coordinates, and for dim = d the twin itself."""
    memo = ext._stage_twins
    if dim not in memo:
        rows = (ext.base if dim == 2 else ext.levels[(dim - 4) // 2].product).num_facets
        memo[dim] = HPolytope(tuple(a[:dim] for a in ext.twin.A[:rows]), ext.twin.b[:rows])
    return memo[dim]


def stage_vertices(ext: ExtendedParabola, dim: int) -> list[State]:
    """The dimension-dim stage's vertex y states, via the product vertex map (a fresh list)."""
    memo = ext._stage_vertices
    if dim not in memo:
        level, inner = ext.levels[(dim - 4) // 2], stage_vertices(ext, dim - 2)
        sweep = level_functional(dim - 2).rescaled(ext.scales)
        memo[dim] = tuple(dp_vrep(inner, sweep, *_twin_fibers(ext, level)))
    return list(memo[dim])


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    d: int
    checks: tuple[CheckResult, ...]
    norm_sq_phi: Fraction
    norm_sq_phi_prime: Fraction

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
            "norm_sq_phi": str(self.norm_sq_phi),
            "norm_sq_phi_prime": str(self.norm_sq_phi_prime),
        }


_ON_GRID = "phi'(p) = phi(p)^2 - phi(p) at every vertex"


def verify_construction(ext: ExtendedParabola) -> ConstructionReport:
    """Machine-check every claimed property of the tower, exactly.

    (a) facet count n/2; (b) the t-map yields M feasible simple vertices and
    (f) is injective, both read off one ``dp_verify``; (c) every vertex
    projects onto its parabola grid point; (d) the two functionals have
    orthogonal coefficient vectors; (e) phi spans exactly [0, 1] over the
    vertices.  The squared norms of both functionals are recorded: the
    projection is orthogonal in the sense of orthogonal directions, not
    orthonormal rows.
    """
    params = ext.params
    m_top = params.vertex_count
    facets, expected = ext.poly.num_facets, params.facet_count
    checks = [("facet_count", facets == expected, f"{facets} facets, expected {expected}")]

    states = [state_for_t(ext, t) for t in range(m_top)]
    vertex_check = dp_verify(ext.twin, states, m_top)
    bad = [(t, "infeasible") for t in vertex_check.infeasible]
    bad = sorted(bad + [(t, "not a simple vertex") for t in vertex_check.non_simple])
    detail = f"failures at {bad[:5]}" if bad else f"{m_top} vertices checked"
    checks.append(("vertices_simple", not bad, detail))

    # On the grid, phi = t/(M - 1) and phi' = t (t - M + 1)/(M - 1)^2; in y both are rescaled.
    steps, off_grid = m_top - 1, []
    nums, denoms = zip(*states)
    columns = list(zip(*nums))
    phi, phi_prime = (g.rescaled(ext.scales) for g in (ext.phi, ext.phi_prime))
    phis = list(zip(*phi.scaled_columns(columns, denoms)))  # (numerator, denominator > 0)
    primes = zip(*phi_prime.scaled_columns(columns, denoms))
    low = high = phis[0]
    for t, ((p, q), (r, u)) in enumerate(zip(phis, primes)):
        if p * steps != t * q or r * steps * steps != t * (t - steps) * u:
            off_grid.append(t)
        low = (p, q) if p * low[1] < low[0] * q else low  # phi's range, cross-multiplied
        high = (p, q) if p * high[1] > high[0] * q else high
    detail = f"identity fails at t in {off_grid[:5]}"
    checks.append(("projection_identity", not off_grid, detail if off_grid else _ON_GRID))

    ortho = exactla.dot(ext.phi.coeffs, ext.phi_prime.coeffs)
    checks.append(("functional_orthogonality", ortho == 0, f"<c_phi, c_phi'> = {ortho}"))

    low, high = Fraction(*low), Fraction(*high)
    checks.append(("phi_range", low == 0 and high == 1, f"phi over vertices spans [{low}, {high}]"))

    distinct = m_top - len(vertex_check.duplicate_pairs)
    detail = f"{distinct} distinct vertices for {m_top} indices"
    checks.append(("t_map_bijective", distinct == m_top, detail))

    return ConstructionReport(
        n=params.n,
        d=params.d,
        checks=tuple(CheckResult(*check) for check in checks),
        norm_sq_phi=exactla.dot(ext.phi.coeffs, ext.phi.coeffs),
        norm_sq_phi_prime=exactla.dot(ext.phi_prime.coeffs, ext.phi_prime.coeffs),
    )


def sidecar_json_dict(ext: ExtendedParabola) -> dict:
    """Exact-rational JSON description of the construction metadata."""
    params = ext.params
    return {
        "n": params.n,
        "d": params.d,
        "N": params.fiber_count,
        "M": params.vertex_count,
        "phi": [str(c) for c in ext.phi.coeffs],
        "phi_prime": [str(c) for c in ext.phi_prime.coeffs],
        "levels": [
            {
                "source_dim": lv.source_dim,
                "m_level": lv.m_level,
                "v_params": [str(p) for p in lv.fiber_start.params],
                "w_params": [str(p) for p in lv.fiber_end.params],
                "b_rows": [[str(e) for e in row] for row in lv.b_rows],
                "beta": [str(e) for e in lv.beta],
                "beta_prime": [str(e) for e in lv.beta_prime],
            }
            for lv in ext.levels
        ],
    }
