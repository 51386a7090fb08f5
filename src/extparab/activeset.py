"""Active-set maximization of a quadratic over a simple H-polytope.

At a simple vertex the feasible directions that keep as many working rows
tight as possible are exactly the d edge rays (each keeps d-1 of the d tight
rows and strictly leaves one), so the working set is the tight set and one
loop body is one edge move: price the edges from ``edge_directions`` against
the gradient (``improving_edges``), follow the chosen improving edge until a
facet blocks or the gradient along it vanishes, and repeat until no edge
improves.  A move swaps one tight row, so each vertex's edges are pivoted
from the last one's.  That loop is written once, as the generator ``walk``:
``active_set_run`` records its vertices as a trace, ``stream_trace`` writes
them to the trace and plot files as they come, and the path certificate in
``lowerbound`` checks the same moves against the construction.

The one "for some" in that loop, which improving edge to follow, is the
pivot-rule choice point.  Rules plug in through ``choose_direction`` and must
pick from the offered candidates; FirstIndex, LastIndex, SeededRandom and
Adversarial are provided.

Objectives are convex-or-not quadratics; with a convex one, movement along an
improving edge stays improving up to the edge endpoint, so every iterate is a
vertex.  A trace step holds a vertex, its tight set, the followed direction,
the step length and the objective value.  ``step_json`` and ``plot_row``
format one step; ``trace_to_json`` and ``trace_plot_rows`` join them over a
whole ``Trace``, and ``stream_trace`` over batches of the walk, so ``run``'s
memory does not depend on the number of vertices.

The iterate is one integer state per vertex, ``polytope.ScaledPoint``:
numerators over one denominator, with the slacks and tight set evaluated
once; ``polytope`` owns it, with its row and slack formats.  Objectives keep
their form with denominators cleared and evaluate the gradient numerators
(once per vertex), the curvature along an edge and the objective value on
that state, over the nonzero rows of the quadratic part only (on the tower
it has a single one).  ``walk`` prices a vertex's edges in O(d) integer
products, as G . dir = D (l . dir) + sum of dir_i (G_i - D l_i) over those
rows, with the linear price l . dir kept per direction object: the pivot
hands most directions back as the same immutable tuples, and l is fixed, so
a kept price is still exact.  The rule, the trace steps (without slacks)
and the writers take that state too; no Fraction vertex is built on it.
"""

from __future__ import annotations

import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

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
from .exactla import Matrix, Vector, decimal_text, rational_texts
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

    def value_at(self, nums: Sequence[int], denom: int) -> Fraction:
        """f at the point nums/denom, as (S X^T quad X + D S linear . X + D^2 S c)/(S D^2)."""
        scale, _, linear, constant = self._cleared
        affine = sum(map(mul, linear, nums)) + denom * constant
        return Fraction(self._scaled_form(nums) + denom * affine, scale * denom**2)

    def gradient_at(self, nums: Sequence[int], denom: int) -> tuple[tuple[int, ...], int]:
        """grad f at the point nums/denom as (integer numerators G, scale S D), grad f = G/(S D).

        G = 2 S quad X + D S linear is a positive multiple of the gradient,
        so it prices edges with the right signs.
        """
        scale, rows, linear, _ = self._cleared
        grad = [denom * a for a in linear]
        for i, cols, entries in rows:
            grad[i] += 2 * sum(map(mul, entries, map(nums.__getitem__, cols)))
        return tuple(grad), scale * denom

    def value(self, x: Sequence) -> Fraction:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, objective {self.dim}")
        return self.value_at(*exactla.common_denominator(x))

    def gradient(self, x: Sequence) -> Vector:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, objective {self.dim}")
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
    mu_max: Fraction | None,
    gradient: tuple[Sequence[int], int],
) -> Fraction:
    """Largest step keeping the direction improving, capped by mu_max.

    The directional derivative g(mu) = grad(x) . d + 2 mu d^T quad d is
    affine in mu; the step is min(mu_max, root of g) with the root at
    infinity for nonnegative curvature.  Requires g(0) > 0.  ``gradient`` is
    grad f(x) as ``QuadraticObjective.gradient_at`` gives it, which the
    caller has already evaluated to price the edges.  Both terms stay
    integers (G . d and S d^T quad d); only a finite root is a Fraction.
    """
    numerators, scale = gradient
    g0 = sum(map(mul, numerators, direction))
    if g0 <= 0:
        raise NotImproving(f"directional derivative {Fraction(g0, scale)} is not positive")
    curvature = f._scaled_form(direction)
    if curvature < 0:
        stationary = Fraction(g0 * f._cleared[0], -2 * curvature * scale)
        return stationary if mu_max is None else min(mu_max, stationary)
    if mu_max is None:
        raise UnboundedImprovement("improving edge is unbounded")
    return mu_max


def improving_edges(edges: Sequence[Edge], gradient: Sequence) -> list[Edge]:
    """The edges (leaving_facet, direction) of a vertex along which the gradient rises.

    ``edges`` is the vertex's ``polytope.edge_directions`` list and
    ``gradient`` any positive multiple of grad f at the vertex, such as the
    integer numerators from ``QuadraticObjective.gradient_at``; the scaling
    keeps every sign.  ``walk``'s O(d) pricing is tested against it.
    """
    return [(facet, d) for facet, d in edges if sum(map(mul, gradient, d)) > 0]


def _linear_price(linear: Sequence[int], direction: Sequence[int]) -> int:
    """l . dir, the objective's scaled linear part l: ``walk``'s price of a new direction."""
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
    """A visited vertex as nums/denom in lowest terms (the runner's state), with
    tight rows, followed direction, step and f (direction and step None last)."""

    nums: tuple[int, ...]
    denom: int
    tight: TightSet
    direction: tuple[int, ...] | None
    mu: Fraction | None
    f_value: Fraction


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
    vertex k or its edge.  The last record has no direction: no edge
    improves, or ``max_iter`` moves were made.
    """
    f_value = f.value_at(point.nums, point.denom)
    _, curved, linear, _ = f._cleared
    edges, prices = None, {}
    for moves in count():
        nums, denom, _, tight = point
        gradient = f.gradient_at(nums, denom)
        edges = polytope.edge_directions(poly, point, edges)  # raises DegenerateVertex
        bends = [(i, gradient[0][i] - denom * linear[i]) for i, _, _ in curved]  # G_i - D l_i
        seen, prices, improving = prices, {}, []
        for edge in edges:
            key = id(direction := edge[1])
            hit = seen.get(key)  # seen keeps its directions alive, so no id is reused
            if hit is None or hit[0] is not direction:
                hit = direction, _linear_price(linear, direction)
            prices[key] = hit
            price = denom * hit[1]
            for i, bend in bends:
                price += direction[i] * bend
            if price > 0:
                improving.append(edge)
        if not improving or moves >= max_iter:
            yield point, improving, TraceStep(nums, denom, tight, None, None, f_value)
            return

        chosen = rule.choose_direction(improving, point)
        if chosen not in improving:
            raise UnknownRule("pivot rule returned a direction not offered")
        _, direction = chosen
        mu_max = polytope.ratio_test(poly, point, direction)
        mu = line_search(f, direction, mu_max, gradient)
        if not mu > 0:
            raise InternalMismatch("a feasible improving edge must allow mu > 0")
        record = point, improving, TraceStep(nums, denom, tight, direction, mu, f_value)

        point = polytope.locate(poly, *polytope.step(point, direction, mu))
        if len(point.tight) > poly.dim:
            raise DegenerateVertex(
                f"blocking tie leaves {len(point.tight)} tight rows at the new point"
            )
        new_value = f.value_at(point.nums, point.denom)
        if new_value.numerator * f_value.denominator <= f_value.numerator * new_value.denominator:
            raise InternalMismatch("objective must strictly increase on a move")
        if len(point.tight) != poly.dim:
            raise NotAVertex(f"iterate has {len(point.tight)} tight rows, need {poly.dim}")
        f_value = new_value
        yield record


def start_point(poly: HPolytope, f: QuadraticObjective, x0: Sequence) -> ScaledPoint:
    """x0 as ``walk``'s start: NotAVertex unless it is feasible with exactly d tight rows."""
    if f.dim != poly.dim:
        raise DimensionMismatch("objective dimension differs from polytope")
    try:
        point = polytope.scaled_point(poly, exactla.vec(x0))
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
# steps array, and a step.  A step's arrays are never empty: _ITEMS joins
# their items, _DIRECTION wraps one.
_TRACE_HEAD, _TRACE_TAIL = """{{
  "instance": {instance},
  "steps": {steps},
  "edge_moves": {moves},
  "loop_iterations": {moves},
  "terminated": {terminated}
}}""".split("{steps}")
_STEPS_OPEN, _STEPS_SEP, _STEPS_CLOSE = "[\n    ", ",\n    ", "\n  ]"
_STEP_JSON = """{{
      "t": {t},
      "vertex": [
        "{vertex}"
      ],
      "active": [
        {active}
      ],
      "direction": {direction},
      "mu": {mu},
      "f": "{f}"
    }}"""
_ITEMS, _DIRECTION = ",\n" + " " * 8, "[\n        {}\n      ]"
_BATCH = 512  # steps that stream_trace formats and writes with one join


def _check_one_per_step(trace: Trace, values: Sequence, what: str) -> None:
    if len(values) != len(trace.steps):
        raise DimensionMismatch(f"{len(values)} {what} for {len(trace.steps)} trace steps")


def _trace_head(instance: dict | None) -> str:
    return _TRACE_HEAD.format(instance=json.dumps(instance, indent=2).replace("\n", "\n  "))


def step_json(step: TraceStep, t: int | None) -> str:
    """One step's object in the trace JSON, labelled ``t``."""
    direction, mu = step.direction, step.mu
    return _STEP_JSON.format(
        t="null" if t is None else t,
        vertex=f'"{_ITEMS}"'.join(rational_texts(step.nums, step.denom)),
        active=_ITEMS.join(map(str, step.tight)),
        direction="null"
        if direction is None
        else _DIRECTION.format(_ITEMS.join(map(str, direction))),
        mu="null" if mu is None else f'"{mu}"',
        f=step.f_value,
    )


def plot_row(ext: ExtendedParabola, step: TraceStep, phi: tuple[int, int], t: int | None) -> tuple:
    """One step's CSV strings (t, phi, phi_prime, f) from its phi pair and t label."""
    f = step.f_value
    return (
        "" if t is None else str(t),
        decimal_text(*phi),
        decimal_text(*ext.phi_prime.scaled_at(step.nums, step.denom)),
        decimal_text(f.numerator, f.denominator),
    )


def trace_to_json(trace: Trace, instance: dict | None, t_values: Sequence[int | None]) -> str:
    """JSON form of a trace, its steps' ``step_json`` labelled by ``t_values``.

    Exactly the text of ``json.dumps(..., indent=2)``, written directly from
    the integer state: rationals render as ``p/q`` or ``p`` strings, which need
    no escaping.  ``t_values`` has one label per step (else DimensionMismatch),
    and ``loop_iterations`` is ``edge_moves``: each loop body makes one move.
    """
    _check_one_per_step(trace, t_values, "t values")
    steps = _STEPS_SEP.join(map(step_json, trace.steps, t_values))
    steps = _STEPS_OPEN + steps + _STEPS_CLOSE if steps else "[]"
    tail = _TRACE_TAIL.format(moves=trace.edge_moves, terminated=json.dumps(trace.terminated))
    return _trace_head(instance) + steps + tail


def trace_plot_rows(
    trace: Trace, ext: ExtendedParabola, phi_values: Sequence[tuple[int, int]]
) -> list[tuple[str, str, str, str]]:
    """The steps' ``plot_row`` from ``phi_values``, one ``Functional.scaled_at`` pair
    per step (DimensionMismatch otherwise); decimals only here."""
    _check_one_per_step(trace, phi_values, "phi values")
    return [plot_row(ext, s, phi, grid_index(ext, *phi)) for s, phi in zip(trace.steps, phi_values)]


def stream_trace(
    records: Iterable, ext: ExtendedParabola, instance: dict, trace_out: TextIO, plot_out: TextIO
) -> tuple[int, str]:
    """Write a ``walk`` on ``ext`` (one record or more) as trace JSON and plot CSV.

    The text is ``trace_to_json`` of ``active_set_run``'s trace plus a newline,
    and a header over its ``trace_plot_rows``, formatted ``_BATCH`` steps at a
    time.  Each step's phi and t label are evaluated once, for both files.
    Returns (vertices visited, terminated)."""
    records = iter(records)
    trace_out.write(_trace_head(instance) + _STEPS_OPEN)
    plot_out.write("t,phi,phi_prime,f\n")
    visited, separator = 0, ""
    while batch := list(islice(records, _BATCH)):
        steps = [step for _, _, step in batch]
        phis = [ext.phi.scaled_at(step.nums, step.denom) for step in steps]
        labels = [grid_index(ext, *phi) for phi in phis]
        trace_out.write(separator + _STEPS_SEP.join(map(step_json, steps, labels)))
        rows = map(plot_row, repeat(ext), steps, phis, labels)
        plot_out.write("".join(",".join(row) + "\n" for row in rows))
        visited, separator, improving = visited + len(batch), _STEPS_SEP, batch[-1][1]
    terminated = "MaxIterations" if improving else "Optimal"
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
