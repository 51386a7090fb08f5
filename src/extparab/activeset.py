"""Active-set maximization of a quadratic over a simple H-polytope.

At a simple vertex the feasible directions that keep as many working rows
tight as possible are exactly the d edge rays (each keeps d-1 of the d tight
rows and strictly leaves one), so the working set is the tight set and one
loop body is one edge move: price the edges from ``edge_directions`` against
the gradient (``improving_edges``), follow the chosen improving edge until a
facet blocks or the gradient along it vanishes, and repeat until no edge
improves.  The certificate in ``lowerbound`` prices its vertices with the
same ``improving_edges``.

The one "for some" in that loop, which improving edge to follow, is the
pivot-rule choice point.  Rules plug in through ``choose_direction`` and must
pick from the offered candidates; FirstIndex, LastIndex, SeededRandom and
Adversarial are provided.

Objectives are convex-or-not quadratics; with a convex one, movement along an
improving edge stays improving up to the edge endpoint, so every iterate is a
vertex.  The runner records the full trace: vertices, tight sets,
directions, step lengths and objective values, plus the edge-move count.

The runner evaluates the gradient once per vertex and hands it to both
pricing and the line search; pricing clears the gradient's denominators.
Slacks, tight sets and the ratio test come from ``polytope``, which works on
integer numerators.  Objectives evaluate over the nonzero entries of their
quadratic part only (on the tower it has a single one).
"""

from __future__ import annotations

import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from . import exactla, polytope
from .errors import (
    BadParameters,
    DegenerateVertex,
    DimensionMismatch,
    InternalMismatch,
    NotAVertex,
    NotImproving,
    UnboundedImprovement,
    UnknownRule,
)
from .exactla import Matrix, Vector
from .extension import ExtendedParabola
from .polytope import HPolytope, TightSet

DEFAULT_MAX_ITER = 10**7

DirectionCandidate = tuple[int, tuple[int, ...]]


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
        if quad != exactla.transpose(quad):
            raise BadParameters("quadratic part must be exactly symmetric")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", exactla.rat(self.constant))

    @property
    def dim(self) -> int:
        return len(self.linear)

    @cached_property
    def _quad_rows(self) -> tuple[tuple[int, tuple[int, ...], Vector], ...]:
        # (i, columns, entries) of every nonzero row i of quad.
        rows = []
        for i, row in enumerate(self.quad):
            cols = tuple(j for j, a in enumerate(row) if a)
            if cols:
                rows.append((i, cols, tuple(row[j] for j in cols)))
        return tuple(rows)

    def _quad_form(self, u: Sequence) -> Fraction:
        """u^T quad u."""
        total = Fraction(0)
        for i, cols, entries in self._quad_rows:
            if u[i]:
                total += u[i] * exactla.dot(entries, [u[j] for j in cols])
        return total

    def value(self, x: Sequence) -> Fraction:
        return self._quad_form(x) + exactla.dot(self.linear, x) + self.constant

    def gradient(self, x: Sequence) -> Vector:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, objective {self.dim}")
        grad = list(self.linear)
        for i, cols, entries in self._quad_rows:
            grad[i] += 2 * exactla.dot(entries, [x[j] for j in cols])
        return tuple(grad)

    def curvature_along(self, direction: Sequence) -> Fraction:
        return self._quad_form(direction)


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
    quad = exactla.outer(c_phi, c_phi)
    linear = tuple(-c * a - b for a, b in zip(c_phi, c_phi_prime))
    return QuadraticObjective(quad, linear, Fraction(0))


def line_search(
    f: QuadraticObjective,
    x: Sequence,
    direction: Sequence,
    mu_max: Fraction | None,
    gradient: Vector,
) -> Fraction:
    """Largest step keeping the direction improving, capped by mu_max.

    The directional derivative g(mu) = grad(x) . d + 2 mu d^T quad d is
    affine in mu; the step is min(mu_max, root of g) with the root at
    infinity for nonnegative curvature.  Requires g(0) > 0.  ``gradient`` is
    grad f(x), which the caller has already evaluated to price the edges.
    """
    g0 = exactla.dot(gradient, direction)
    if g0 <= 0:
        raise NotImproving(f"directional derivative {g0} is not positive")
    curvature = f.curvature_along(direction)
    if curvature >= 0:
        stationary = None
    else:
        stationary = -g0 / (2 * curvature)
    if mu_max is None and stationary is None:
        raise UnboundedImprovement("improving ray is unbounded")
    if mu_max is None:
        return stationary
    if stationary is None:
        return mu_max
    return min(mu_max, stationary)


def improving_edges(
    poly: HPolytope,
    f: QuadraticObjective,
    v: Sequence,
    gradient: Vector | None = None,
) -> list[DirectionCandidate]:
    """Edges (leaving_facet, direction) at simple vertex v with grad f(v) . direction > 0.

    ``gradient`` is grad f(v) when the caller has already evaluated it.  The
    edges are priced against the gradient with its denominators cleared, a
    positive scaling that keeps every sign.
    """
    if gradient is None:
        gradient = f.gradient(v)
    weights = [(j, g) for j, g in enumerate(exactla.common_denominator(gradient)[0]) if g]
    return [
        (facet, d)
        for facet, d in polytope.edge_directions(poly, v)  # raises DegenerateVertex
        if sum(g * d[j] for j, g in weights) > 0
    ]


# ---------------------------------------------------------------------------
# Pivot rules


class PivotRule(ABC):
    """Picks the improving edge the active-set loop follows.

    ``choose_direction`` must return one of the candidates it is offered; the
    runner enforces this.
    """

    @abstractmethod
    def choose_direction(
        self, candidates: Sequence[DirectionCandidate], vertex: Vector
    ) -> DirectionCandidate: ...


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
    """Delegates every choice to a callback(candidates, vertex)."""

    def __init__(self, callback: Callable):
        self.callback = callback

    def choose_direction(self, candidates, vertex):
        return self.callback(candidates, vertex)


def _spiteful_choice(candidates, vertex):
    # Default adversary: middle candidate, to differ from First and Last.
    return candidates[len(candidates) // 2]


def make_rule(name: str, seed: int | None = None) -> PivotRule:
    """Rule registry for the CLI: first | last | random | adversarial."""
    if name == "first":
        return FirstIndex()
    if name == "last":
        return LastIndex()
    if name == "random":
        return SeededRandom(0 if seed is None else seed)
    if name == "adversarial":
        return Adversarial(_spiteful_choice)
    raise UnknownRule(f"no pivot rule named {name!r}")


RULE_CONSUMES_SEED = {"random"}


# ---------------------------------------------------------------------------
# Trace and runner


@dataclass(frozen=True)
class TraceStep:
    vertex: Vector
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
    def loop_iterations(self) -> int:
        # Each loop body performs exactly one edge move.
        return self.edge_moves

    @property
    def vertices_visited(self) -> int:
        return len(self.steps)

    @property
    def vertex_sequence(self) -> tuple[Vector, ...]:
        return tuple(s.vertex for s in self.steps)


def active_set_run(
    poly: HPolytope,
    f: QuadraticObjective,
    x0: Sequence,
    rule: PivotRule,
    max_iter: int | None = None,
) -> Trace:
    """Run the active-set loop from a simple vertex until locally optimal.

    Raises NotAVertex / DegenerateVertex when an iterate is not a simple
    vertex (with a convex quadratic this cannot happen, since line_search
    stops only at facet boundaries), and flags a blocking tie that would
    leave more than d tight rows as DegenerateVertex rather than perturbing.
    Hitting the iteration cap is reported in the trace, not raised.
    """
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    if f.dim != poly.dim:
        raise DimensionMismatch("objective dimension differs from polytope")
    x = exactla.vec(x0)
    if not polytope.contains(poly, x):
        raise NotAVertex("start point is not feasible")
    tight = polytope.tight_set(poly, x)
    if len(tight) != poly.dim:
        raise NotAVertex(f"start point has {len(tight)} tight rows, need {poly.dim}")

    steps: list[TraceStep] = []
    edge_moves = 0
    f_value = f.value(x)

    while True:
        if len(tight) != poly.dim:
            raise NotAVertex(f"iterate has {len(tight)} tight rows, need {poly.dim}")
        gradient = f.gradient(x)
        improving = improving_edges(poly, f, x, gradient)
        if not improving or edge_moves >= max_iter:
            steps.append(TraceStep(x, tight, None, None, f_value))
            terminated = "MaxIterations" if improving else "Optimal"
            break

        chosen = rule.choose_direction(improving, x)
        if chosen not in improving:
            raise UnknownRule("pivot rule returned a direction not offered")
        _, direction = chosen
        mu_max, _blockers = polytope.ratio_test(poly, x, direction)
        mu = line_search(f, x, direction, mu_max, gradient)
        if not mu > 0:
            raise InternalMismatch("a feasible improving edge must allow mu > 0")

        steps.append(TraceStep(x, tight, direction, mu, f_value))

        x = tuple(a + mu * e for a, e in zip(x, direction))
        tight = polytope.tight_set(poly, x)
        if len(tight) > poly.dim:
            raise DegenerateVertex(
                f"blocking tie leaves {len(tight)} tight rows at the new point"
            )
        edge_moves += 1
        new_value = f.value(x)
        if not new_value > f_value:
            raise InternalMismatch("objective must strictly increase on a move")
        f_value = new_value

    return Trace(steps=tuple(steps), edge_moves=edge_moves, terminated=terminated)


# ---------------------------------------------------------------------------
# Serialization


def trace_to_json_dict(
    trace: Trace,
    instance: dict | None = None,
    t_values: Sequence[int | None] | None = None,
) -> dict:
    """JSON form of a trace, steps labelled by ``t_values``; rationals stay ``p/q``."""
    steps = []
    for step, t in zip(trace.steps, t_values or [None] * len(trace.steps)):
        steps.append(
            {
                "t": t,
                "vertex": [str(c) for c in step.vertex],
                "active": list(step.tight),
                "direction": list(step.direction) if step.direction is not None else None,
                "mu": str(step.mu) if step.mu is not None else None,
                "f": str(step.f_value),
            }
        )
    return {
        "instance": instance,
        "steps": steps,
        "edge_moves": trace.edge_moves,
        "loop_iterations": trace.loop_iterations,
        "terminated": trace.terminated,
    }


def trace_to_json(trace: Trace, instance=None, t_values=None, indent=None) -> str:
    return json.dumps(trace_to_json_dict(trace, instance, t_values), indent=indent)


def trace_plot_rows(
    trace: Trace,
    ext: ExtendedParabola,
    phi_values: Sequence[Fraction],
    significant_digits: int = 12,
) -> list[tuple[str, str, str, str]]:
    """CSV rows (t, phi, phi_prime, f) from the steps' ``phi_values``; decimals only here."""
    rows = []
    for step, phi_val in zip(trace.steps, phi_values):
        t = grid_index(ext, phi_val)
        rows.append(
            (
                "" if t is None else str(t),
                exactla.to_decimal(phi_val, significant_digits),
                exactla.to_decimal(ext.phi_prime(step.vertex), significant_digits),
                exactla.to_decimal(step.f_value, significant_digits),
            )
        )
    return rows


def grid_index(ext: ExtendedParabola, phi_value: Fraction) -> int | None:
    """Grid index t = phi (M - 1) of a vertex with this phi value, or None off-grid."""
    m_top = ext.params.vertex_count
    value = phi_value * (m_top - 1)
    if value.denominator == 1 and 0 <= value.numerator <= m_top - 1:
        return int(value)
    return None
