"""Active-set maximization of a quadratic over a simple H-polytope.

At a simple vertex the feasible directions that keep as many working rows
tight as possible are exactly the d edge rays (each keeps d-1 of the d tight
rows and strictly leaves one), so the working set is the tight set and one
loop body is one edge move: price the edges from ``edge_directions`` against
the gradient, follow the chosen improving edge until a facet blocks or the
gradient along it vanishes, and repeat until no edge improves.  A move swaps
the followed edge's facet for the ratio test's blocking row; handed that
swap, ``edge_directions`` pivots the last vertex's edges.  That loop is
written once, as the generator ``walk``: ``active_set_run`` records its
vertices as a trace, ``stream_trace`` writes them to the trace and plot files
as they come, and the path certificate in ``lowerbound`` checks the same
moves against the construction.

The one "for some" in that loop, which improving edge to follow, is the
pivot-rule choice point.  Rules plug in through ``choose_direction`` and must
pick from the offered candidates; FirstIndex, LastIndex, SeededRandom and
Adversarial are provided.

Objectives are convex-or-not quadratics; with a convex one, movement along an
improving edge stays improving up to the edge endpoint, so every iterate is a
vertex.  A trace step holds a vertex, its tight set, the followed direction,
the step length and the objective value.  ``trace_to_json`` and
``trace_plot_rows`` format a whole ``Trace``, and ``stream_trace`` the walk
in batches, so ``run``'s memory does not depend on the number of vertices;
each transposes its steps and formats them column by column (phi, phi' and
the decimals a call per column), each trace step with one %-template for its shape.

The iterate is one integer state per vertex, ``polytope.ScaledPoint``:
numerators over one denominator, with the slacks and tight set evaluated
once.  Objectives keep their form with denominators cleared and evaluate the
curvature along an edge and the objective value on that state, over the
nonzero rows of the quadratic part only (on the tower it has one).  Step
lengths and values are integer pairs (numerator, denominator > 0), compared
by cross-multiplication: no Fraction is built on a move.  ``walk`` prices a
vertex's edges by G . dir = D (l . dir) + sum of dir_i (G_i - D l_i) over
those rows, for G = 2 S quad X + D S linear, which it never forms, and keeps
each l . dir in a table by facet: only the ``fresh`` edges
``edge_directions`` names (about 2 of 12 at d = 12) are priced again, and
the followed edge's l . dir is taken afresh and checked against the table.

``walk`` and ``active_set_run`` walk the polytope they are given; every
walk of the tower is on its twin (``ExtendedParabola.twin``, y = s * x),
whose vertices are integer points over 1 or 9, so at d = 12 their
numerators, slacks and edges fit in one 30-bit digit.  ``stream_trace``, the
walk ``run`` writes, offers its rule the twin's vertex and directions and
maps each step back to x as it writes it; the path certificate and
``report``'s runs compare y states.
"""

from __future__ import annotations

import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, compress, count, islice, repeat
from math import gcd, lcm
from operator import floordiv, mul, truediv
from typing import Iterator, NamedTuple, Sequence, TextIO

from . import exactla, polytope
from .errors import (
    BadParameters,
    DegenerateVertex,
    DimensionMismatch,
    InternalMismatch,
    NotAVertex,
    NotFeasible,
    NotImproving,
    UnboundedImprovement,
    UnknownRule,
)
from .exactla import Matrix, Vector, decimal_texts, rational_texts
from .extension import ExtendedParabola
from .polytope import Edge, HPolytope, ScaledPoint, TightSet


@dataclass(frozen=True)
class QuadraticObjective:
    """f(x) = x^T quad x + linear . x + constant, with exact gradient."""

    quad: Matrix
    linear: Vector
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        quad = exactla.mat(self.quad)
        linear = exactla.vec(self.linear)
        if len(quad) != len(linear):
            raise DimensionMismatch("quadratic and linear parts disagree on dimension")
        if quad != tuple(zip(*quad)):
            raise BadParameters("quadratic part must be exactly symmetric")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", exactla.rat(self.constant))

    @property
    def dim(self) -> int:
        return len(self.linear)

    @cached_property
    def _cleared(self) -> tuple[int, tuple, tuple[int, ...], int]:
        # The form times the lcm S of its denominators, all integers: (S, the
        # nonzero rows (i, columns, entries) of quad, linear, constant).
        n = self.dim
        ints, scale = exactla.common_denominator([*chain(*self.quad), *self.linear, self.constant])
        rows = []
        for i in range(n):
            row = ints[i * n : i * n + n]
            if any(row):
                rows.append((i, tuple(compress(range(n), row)), tuple(compress(row, row))))
        return scale, tuple(rows), ints[n * n : -1], ints[-1]

    def _scaled_form(self, u: Sequence[int]) -> int:
        """S u^T quad u for an integer vector u."""
        total = 0
        for i, cols, entries in self._cleared[1]:
            if u[i]:
                total += u[i] * sum(map(mul, entries, map(u.__getitem__, cols)))
        return total

    def value_at(self, nums: Sequence[int], denom: int) -> tuple[int, int]:
        """f at nums/denom as the pair (S X^T quad X + D S linear . X + D^2 S c, S D^2)."""
        scale, _, linear, constant = self._cleared
        affine = sum(map(mul, linear, nums)) + denom * constant
        return self._scaled_form(nums) + denom * affine, scale * denom**2

    def rescaled(self, scales: Sequence[int]) -> QuadraticObjective:
        """f(y / scales), which takes f's values in the coordinates y = scales * x."""
        quad = [[q / (a * b) for q, b in zip(row, scales)] for row, a in zip(self.quad, scales)]
        return QuadraticObjective(quad, tuple(map(truediv, self.linear, scales)), self.constant)

    def value(self, x: Sequence) -> Fraction:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, objective {self.dim}")
        return Fraction(*self.value_at(*exactla.common_denominator(exactla.vec(x))))

    def gradient(self, x: Sequence) -> Vector:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, objective {self.dim}")
        x = exactla.vec(x)
        scale, rows, _, _ = self._cleared
        grad = list(self.linear)
        for i, cols, entries in rows:
            grad[i] += 2 * exactla.dot(entries, [x[j] for j in cols]) / scale
        return tuple(grad)


def objective_constant(m_count: int) -> Fraction:
    """The linear coefficient 1 - 3/(2M - 2) that leaves only unit chords improving."""
    return 1 - Fraction(3, 2 * m_count - 2)


def pullback_objective(ext: ExtendedParabola) -> QuadraticObjective:
    """The instance objective phi(x)^2 - c phi(x) - phi'(x) on the tower.

    Rank-one convex quadratic part (outer product of the phi coefficients);
    on vertices phi' = phi^2 - phi cancels the curvature and the value
    reduces to (1 - c) phi, strictly increasing along the vertex path.
    """
    c = objective_constant(ext.params.vertex_count)
    c_phi = ext.phi.coeffs
    c_phi_prime = ext.phi_prime.coeffs
    quad = tuple(tuple(a * b for b in c_phi) for a in c_phi)
    linear = tuple(-c * a - b for a, b in zip(c_phi, c_phi_prime))
    return QuadraticObjective(quad, linear, Fraction(0))


def line_search(
    f: QuadraticObjective,
    direction: Sequence[int],
    mu_max: tuple[int, int] | None,
    slope: tuple[int, int],
) -> tuple[int, int]:
    """Largest step keeping the direction improving, capped by mu_max.

    The directional derivative g(mu) = grad(x) . d + 2 mu d^T quad d is
    affine in mu; the step is min(mu_max, root of g) with the root at
    infinity for nonnegative curvature.  ``slope`` is g(0) as the pair
    (G . d, S D) with G = 2 S quad X + D S linear, the price ``walk`` gave
    the edge; it must be positive (else NotImproving).  The curvature term
    stays an integer (S d^T quad d), and mu_max, the root and the result are
    pairs (numerator, denominator > 0), compared by cross-multiplication.
    """
    g0, scale = slope
    if g0 <= 0:
        raise NotImproving(f"directional derivative {Fraction(g0, scale)} is not positive")
    curvature = f._scaled_form(direction)
    if curvature < 0:
        root = g0 * f._cleared[0], -2 * curvature * scale
        return root if mu_max is None or root[0] * mu_max[1] < mu_max[0] * root[1] else mu_max
    if mu_max is None:
        raise UnboundedImprovement("improving edge is unbounded")
    return mu_max


def _linear_price(linear: Sequence[int], direction: Sequence[int]) -> int:
    """l . dir, the objective's scaled linear part l: ``walk``'s price of a fresh edge."""
    return sum(map(mul, linear, direction))


# ---------------------------------------------------------------------------
# Pivot rules


class PivotRule(ABC):
    """Picks the improving edge the active-set loop follows.

    ``choose_direction`` must return one of the candidates it is offered; the
    runner enforces this.  ``vertex`` is the runner's ``ScaledPoint``: integer
    numerators over one denominator, with slacks and tight rows.
    """

    @abstractmethod
    def choose_direction(self, candidates: Sequence[Edge], vertex: ScaledPoint) -> Edge: ...


class FirstIndex(PivotRule):
    """Always the first offered candidate (lowest facet index)."""

    def choose_direction(self, candidates, vertex):
        return candidates[0]


class LastIndex(PivotRule):
    """Always the last offered candidate (highest facet index)."""

    def choose_direction(self, candidates, vertex):
        return candidates[-1]


class SeededRandom(PivotRule):
    """Uniform choice from a private RNG; deterministic given the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose_direction(self, candidates, vertex):
        return candidates[self._rng.randrange(len(candidates))]


class Adversarial(PivotRule):
    """Always the middle offered candidate, to differ from First and Last."""

    def choose_direction(self, candidates, vertex):
        return candidates[len(candidates) // 2]


RULE_NAMES = ("first", "last", "random", "adversarial")
RULE_CONSUMES_SEED = {"random"}


def make_rule(name: str, seed: int | None = None) -> PivotRule:
    """Rule registry for the CLI: the rule named in ``RULE_NAMES``."""
    if name == "first":
        return FirstIndex()
    if name == "last":
        return LastIndex()
    if name == "random":
        return SeededRandom(0 if seed is None else seed)
    if name == "adversarial":
        return Adversarial()
    raise UnknownRule(f"no pivot rule named {name!r}")


# ---------------------------------------------------------------------------
# Trace and runner


class TraceStep(NamedTuple):
    """A visited vertex as nums/denom in lowest terms (the runner's state), with tight
    rows, followed direction, step and f pairs (direction and step None last)."""

    nums: tuple[int, ...]
    denom: int
    tight: TightSet
    direction: tuple[int, ...] | None
    mu: tuple[int, int] | None
    f_value: tuple[int, int]


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    edge_moves: int
    terminated: str  # "Optimal" | "MaxIterations"

    @property
    def vertices_visited(self) -> int:
        return len(self.steps)


def walk(
    poly: HPolytope, f: QuadraticObjective, point: ScaledPoint, rule: PivotRule, max_iter: int
) -> Iterator[tuple[ScaledPoint, list[Edge], TraceStep]]:
    """The active-set loop from the simple vertex ``point``, one record per vertex.

    A record is the vertex's ``ScaledPoint`` (which the rule is offered), its
    improving edges and its ``TraceStep`` (integer state, tight rows, followed
    direction, step length and f).  At each vertex the walk prices the edges,
    lets the rule pick an improving one, steps along it by ``line_search``
    (capped by the ratio test) and checks the move before yielding the
    record: a positive step, no blocking tie leaving over d tight rows
    (DegenerateVertex, not perturbed), a strict increase of f and exactly d
    tight rows at the new point (NotAVertex; a convex f only stops where a
    facet blocks).  An error raised while vertex k's record is made is about
    vertex k or its edge.  The chosen edge's linear price is taken afresh and
    must equal the table's (InternalMismatch).  The last record has no
    direction: no edge improves, or ``max_iter`` moves were made.
    """
    f_value = f.value_at(point.nums, point.denom)
    scale, curved, linear, _ = f._cleared
    edges, pivot, prices = None, None, [0] * poly.num_facets  # prices: l . dir by tight facet
    for moves in count():
        nums, denom, _, tight = point
        edges = polytope.edge_directions(poly, point, pivot)  # raises DegenerateVertex
        for k in edges.fresh:
            facet, direction = edges[k]
            prices[facet] = _linear_price(linear, direction)
        # G_i - D l_i = 2 (S quad X)_i, which is 0 off the curved rows.
        bends = [(i, 2 * sum(map(mul, e, map(nums.__getitem__, c)))) for i, c, e in curved]
        improving = []
        for facet, direction in edges:
            price = denom * prices[facet]
            for i, bend in bends:
                price += direction[i] * bend
            if price > 0:
                improving.append((facet, direction))
        if not improving or moves >= max_iter:
            yield point, improving, TraceStep(nums, denom, tight, None, None, f_value)
            return

        chosen = rule.choose_direction(improving, point)
        if chosen not in improving:
            raise UnknownRule("pivot rule returned a direction not offered")
        leaving, direction = chosen
        linear_price = sum(map(mul, linear, direction))  # apart from the table's _linear_price
        if linear_price != prices[leaving]:
            raise InternalMismatch(f"the table's linear price for facet {leaving} is stale")
        slope = denom * linear_price
        for i, bend in bends:
            slope += direction[i] * bend
        mu_max, entering = polytope.ratio_test(poly, point, direction)
        mu = line_search(f, direction, mu_max, (slope, scale * denom))
        num, den = mu
        if not num > 0 < den:
            raise InternalMismatch("a feasible improving edge must allow mu > 0")
        record = point, improving, TraceStep(nums, denom, tight, direction, mu, f_value)

        point = polytope.locate(poly, *polytope.step(point, direction, mu))
        if len(point.tight) > poly.dim:
            raise DegenerateVertex(
                f"blocking tie leaves {len(point.tight)} tight rows at the new point"
            )
        new_value = f.value_at(point.nums, point.denom)
        if new_value[0] * f_value[1] <= f_value[0] * new_value[1]:  # both denominators S D^2 > 0
            raise InternalMismatch("objective must strictly increase on a move")
        if len(point.tight) != poly.dim:
            raise NotAVertex(f"iterate has {len(point.tight)} tight rows, need {poly.dim}")
        f_value, pivot = new_value, (edges, leaving, entering)
        yield record


def start_point(poly: HPolytope, f: QuadraticObjective, x0: Sequence) -> ScaledPoint:
    """x0 as ``walk``'s start: NotAVertex unless it is feasible with exactly d tight rows."""
    if f.dim != poly.dim:
        raise DimensionMismatch("objective dimension differs from polytope")
    try:
        point = polytope.scaled_point(poly, x0)
    except NotFeasible:
        raise NotAVertex("start point is not feasible") from None
    if len(point.tight) != poly.dim:
        raise NotAVertex(f"start point has {len(point.tight)} tight rows, need {poly.dim}")
    return point


def active_set_run(
    poly: HPolytope, f: QuadraticObjective, x0: Sequence, rule: PivotRule, max_iter: int
) -> Trace:
    """The Trace of ``walk`` from the simple vertex x0 (``start_point``) until locally optimal.

    Hitting the iteration cap of ``max_iter`` moves is reported in the trace, not raised.
    """
    steps = []
    for _, improving, step in walk(poly, f, start_point(poly, f, x0), rule, max_iter):
        steps.append(step)
    terminated = "MaxIterations" if improving else "Optimal"
    return Trace(steps=tuple(steps), edge_moves=len(steps) - 1, terminated=terminated)


# ---------------------------------------------------------------------------
# Serialization


# The layout json.dumps(..., indent=2) gives a trace document, cut around its
# steps array, and a step: t, vertex, active, direction, mu and f, in order.
# A step's arrays are never empty: _ITEMS joins their items, _DIRECTION wraps one.
_TRACE_HEAD, _TRACE_TAIL = """{{
  "instance": {instance},
  "steps": {steps},
  "edge_moves": {moves},
  "loop_iterations": {moves},
  "terminated": {terminated}
}}""".split("{steps}")
_STEPS_OPEN, _STEPS_SEP, _STEPS_CLOSE = "[\n    ", ",\n    ", "\n  ]"
_STEP_JSON = """{{
      "t": {},
      "vertex": [
        "{}"
      ],
      "active": [
        {}
      ],
      "direction": {},
      "mu": {},
      "f": "{}"
    }}"""
_ITEMS, _DIRECTION = ",\n" + " " * 8, "[\n        {}\n      ]"
# Steps that stream_trace formats and writes with one join: a batch's live containers, about
# six a step, stay below the young generation's threshold (gc.get_threshold()[0], 700), so a
# batch is freed before a collection can move it to the older generations and scan it there.
_BATCH = 64


def _check_one_per_step(trace: Trace, values: Sequence, what: str) -> None:
    if len(values) != len(trace.steps):
        raise DimensionMismatch(f"{len(values)} {what} for {len(trace.steps)} trace steps")


def _trace_head(instance: dict | None) -> str:
    return _TRACE_HEAD.format(instance=json.dumps(instance, indent=2).replace("\n", "\n  "))


@cache
def _step_template(dim: int, rows: int, entries: int) -> str:
    """_STEP_JSON as a %-template for a step of ``dim`` coordinates, ``rows`` tight rows and
    ``entries`` direction entries (0: no direction).  It takes t, the vertex texts, the rows,
    the entries, the mu text ("null" with no direction) and the f text."""
    vertex, active = f'"{_ITEMS}"'.join(["%s"] * dim), _ITEMS.join(["%d"] * rows)
    edge = _DIRECTION.format(_ITEMS.join(["%d"] * entries)) if entries else "null"
    return _STEP_JSON.format("%s", vertex, active, edge, '"%s"' if entries else "%s", "%s")


def _steps_json(steps: Sequence[TraceStep], labels: Sequence[int | None], scales: Sequence) -> str:
    """The steps' objects in the trace JSON, labelled ``labels`` and joined.

    The steps are transposed and formatted column by column, and mapped back
    from the coordinates y = scales * x they were walked in: x_i is
    nums_i/(denom s_i) in lowest terms, a direction the primitive part of
    dir_i (L/s_i) for L = lcm(s), and its step mu content/L.  Each step is
    then one ``_step_template`` for its shape.  Only the last step may have
    no direction.
    """
    nums, denoms, tights, directions, mus, values = zip(*steps)
    moved, wide = len(steps) - (directions[-1] is None), lcm(*scales)
    columns = zip(zip(*nums), scales)
    vertices = zip(*[rational_texts(x, [q * s for q in denoms]) for x, s in columns])
    edges, steps_mu = [()] * len(steps), ["null"] * len(steps)
    if moved:
        lifts = zip(zip(*directions[:moved]), scales)
        lifted = [list(map(mul, d, repeat(wide // s))) for d, s in lifts]
        contents = list(map(gcd, *lifted))
        edges[:moved] = zip(*[map(floordiv, d, contents) for d in lifted])
        mu_pairs = [(a * c, q * wide) for (a, q), c in zip(mus, contents)]
        steps_mu[:moved] = rational_texts(*zip(*mu_pairs))
    labels = ["null" if t is None else t for t in labels]
    shaped = zip(labels, vertices, tights, edges, steps_mu, rational_texts(*zip(*values)))
    template = partial(_step_template, len(scales))
    texts = [template(len(a), len(e)) % (t, *v, *a, *e, m, f) for t, v, a, e, m, f in shaped]
    return _STEPS_SEP.join(texts)


def trace_to_json(trace: Trace, instance: dict | None, t_values: Sequence[int | None]) -> str:
    """JSON form of a trace, its steps labelled by ``t_values``.

    Exactly the text of ``json.dumps(..., indent=2)``, written directly from
    the integer state: rationals render as ``p/q`` or ``p`` strings, which need
    no escaping.  ``t_values`` has one label per step (else DimensionMismatch),
    and ``loop_iterations`` is ``edge_moves``: each loop body makes one move.
    """
    _check_one_per_step(trace, t_values, "t values")
    steps = trace.steps and _steps_json(trace.steps, t_values, (1,) * len(trace.steps[0].nums))
    steps = _STEPS_OPEN + steps + _STEPS_CLOSE if steps else "[]"
    tail = _TRACE_TAIL.format(moves=trace.edge_moves, terminated=json.dumps(trace.terminated))
    return _trace_head(instance) + steps + tail


def trace_plot_rows(
    trace: Trace, ext: ExtendedParabola, phi_values: Sequence[tuple[int, int]]
) -> list[tuple[str, str, str, str]]:
    """The steps' CSV strings (t, phi, phi_prime, f) from ``phi_values``, one
    ``Functional.scaled_at`` pair per step (DimensionMismatch otherwise); decimals only here."""
    _check_one_per_step(trace, phi_values, "phi values")
    if not trace.steps:
        return []
    nums, denoms, *_, values = zip(*trace.steps)
    primes = ext.phi_prime.scaled_columns(list(zip(*nums)), denoms)
    labels = ["" if (t := grid_index(ext, *p)) is None else str(t) for p in phi_values]
    pairs = zip(*phi_values), primes, zip(*values)
    return list(zip(labels, *[decimal_texts(*pair) for pair in pairs]))


def stream_trace(
    ext: ExtendedParabola,
    f: QuadraticObjective,
    x0: Sequence,
    rule: PivotRule,
    max_iter: int,
    instance: dict,
    trace_out: TextIO,
    plot_out: TextIO,
) -> tuple[int, str]:
    """Walk ``ext``'s tower from the vertex x0 and write it as trace JSON and plot CSV.

    The walk runs on the twin y = s * x from ``polytope.equilibrated``, from
    s * x0 with the objective f(y / s); its rule is offered the twin's vertex
    and edges, facet for facet in the same order.  The text is
    ``trace_to_json`` of ``active_set_run``'s trace on ``ext.poly`` plus a
    newline, and a header over its ``trace_plot_rows``, formatted ``_BATCH``
    steps at a time and mapped back to x by ``_steps_json``; phi and phi' are
    rescaled to y.  Returns (vertices visited, terminated)."""
    twin, scales = ext.twin, ext.scales
    f_y = f.rescaled(scales)
    start = start_point(twin, f_y, [x * s for x, s in zip(x0, scales)])
    records = walk(twin, f_y, start, rule, max_iter)
    phi, phi_prime = (g.rescaled(scales) for g in (ext.phi, ext.phi_prime))
    trace_out.write(_trace_head(instance) + _STEPS_OPEN)
    plot_out.write("t,phi,phi_prime,f\n")
    visited, separator = 0, ""
    while steps := [(last := record)[2] for record in islice(records, _BATCH)]:
        nums, denoms, *_, values = zip(*steps)
        columns = list(zip(*nums))
        phis = phi.scaled_columns(columns, denoms)
        labels = list(map(grid_index, repeat(ext), *phis))
        trace_out.write(separator + _steps_json(steps, labels, scales))
        primes = phi_prime.scaled_columns(columns, denoms)
        texts = [decimal_texts(*pair) for pair in (phis, primes, zip(*values))]
        blanks = ["" if t is None else t for t in labels]
        plot_out.write("".join(map("{},{},{},{}\n".format, blanks, *texts)))
        visited, separator = visited + len(steps), _STEPS_SEP
    terminated = "MaxIterations" if last[1] else "Optimal"
    tail = _TRACE_TAIL.format(moves=visited - 1, terminated=json.dumps(terminated))
    trace_out.write(_STEPS_CLOSE + tail + "\n")
    return visited, terminated


def grid_index(ext: ExtendedParabola, numerator, denominator: int = 1) -> int | None:
    """Grid index t = phi (M - 1) at phi = numerator/denominator (denominator > 0), or None."""
    m_top = ext.params.vertex_count
    t, rest = divmod(numerator * (m_top - 1), denominator)
    if not rest and 0 <= t <= m_top - 1:
        return t
    return None
