"""The deformed product of a polytope with a pair of normally equivalent fibers.

Given a polytope P in R^d, a linear functional phi with phi(P) = [0, 1], and
two normally equivalent polytopes sharing a constraint matrix B with
right-hand sides beta (fiber at phi = 0) and beta' (fiber at phi = 1), the
deformed product lives in R^{d+r} and interpolates the fiber as phi sweeps
across P:

* vertices: (p, v_j + phi(p) (w_j - v_j)) for every vertex p of P and every
  aligned fiber vertex pair (v_j, w_j);
* facets: the rows of P unchanged, plus (beta - beta') phi(x) + B u <= beta.

The product is combinatorially a Cartesian product, so vertex counts multiply
and every product vertex is simple.  ``dp_verify`` checks exactly that, telling
points apart by their integer state (``polytope.cleared``), deciding each
state once per polytope object, and returns a structured report instead of
raising so callers can aggregate; ``dp_verify_states`` takes the states, as
the t-map builds them.  ``dp_vrep``, a witness apart from it, interpolates each
fiber pair cleared to integers and returns Fraction vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from . import exactla, polytope
from .errors import DimensionMismatch, NotFeasible, SizeMismatch
from .exactla import Matrix, Vector
from .polytope import HPolytope, State


@dataclass(frozen=True)
class Functional:
    """Linear functional x -> coeffs . x, evaluated over the nonzero coefficients."""

    coeffs: Vector

    def __post_init__(self):
        object.__setattr__(self, "coeffs", exactla.vec(self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _support(self) -> tuple[tuple[int, ...], Vector, tuple[int, ...], int]:
        # (indices, values, values times the lcm S of their denominators, S)
        # of the nonzero coefficients: one for the tower's phi, d/2 for its phi'.
        indices = tuple(i for i, a in enumerate(self.coeffs) if a)
        values = tuple(self.coeffs[i] for i in indices)
        return (indices, values, *exactla.common_denominator(values))

    def __call__(self, x: Sequence) -> Fraction:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, functional {self.dim}")
        indices, values, _, _ = self._support
        return exactla.dot(values, [x[i] for i in indices])

    def scaled_at(self, nums: Sequence[int], denom: int) -> tuple[int, int]:
        """The value at nums/denom (denom > 0) as the unreduced pair (S coeffs . nums, S denom)."""
        indices, _, ints, scale = self._support
        return sum(map(mul, ints, map(nums.__getitem__, indices))), scale * denom

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "Functional":
        return cls(tuple(int(j == index) for j in range(dim)))


def dp_hrep(
    poly: HPolytope,
    phi: Functional,
    fiber_rows: Matrix,
    beta: Vector,
    beta_prime: Vector,
) -> HPolytope:
    """H-representation of the deformed product in R^{d+r}.

    The caller guarantees phi(poly) = [0, 1]; that is a global construction
    invariant checked once per level, not re-derived here (it would need
    vertex data).
    """
    if phi.dim != poly.dim:
        raise DimensionMismatch("functional dimension differs from polytope")
    fiber_rows = exactla.mat(fiber_rows)
    beta = exactla.vec(beta)
    beta_prime = exactla.vec(beta_prime)
    if not (len(fiber_rows) == len(beta) == len(beta_prime)):
        raise DimensionMismatch("fiber rows and right-hand sides must align")
    zero_tail = (Fraction(0),) * len(fiber_rows[0])
    new_rows = [row + zero_tail for row in poly.A]
    new_rhs = list(poly.b)
    for i, row in enumerate(fiber_rows):
        deformation = tuple((beta[i] - beta_prime[i]) * a for a in phi.coeffs)
        new_rows.append(deformation + row)
        new_rhs.append(beta[i])
    return HPolytope(tuple(new_rows), tuple(new_rhs))


def dp_vrep(
    p_verts: Sequence[Sequence],
    phi: Functional,
    v_verts: Sequence[Sequence],
    w_verts: Sequence[Sequence],
) -> list[Vector]:
    """All m*n product vertices (p, v_j + phi(p) (w_j - v_j)).

    v_verts and w_verts must be aligned index by index under the fiber
    bijection; the alignment is the caller's (sorted-parameter) construction
    and is deliberately not re-derived here, so that alignment bugs surface
    in dp_verify instead of being silently repaired.  Each pair is cleared
    once to integers V, W over one denominator E; with phi(p) = tn/td a tail
    coordinate is one Fraction (V td + tn (W - V))/(E td), after p's own objects.
    """
    if len(v_verts) != len(w_verts):
        raise SizeMismatch("fiber vertex lists differ in length")
    pairs = []
    for k, (v, w) in enumerate(zip(v_verts, w_verts)):
        if len(v) != len(w):
            raise DimensionMismatch(f"fiber pair {k}: v has dim {len(v)}, w has dim {len(w)}")
        nums, denom = exactla.common_denominator(exactla.vec((*v, *w)))
        pairs.append((tuple(zip(nums[: len(v)], nums[len(v) :])), denom))
    out: list[Vector] = []
    for p in p_verts:
        p = exactla.vec(p)
        t = phi(p)
        tn, td = t.numerator, t.denominator
        for vw, denom in pairs:
            denom *= td
            out.append(p + tuple(Fraction(a * td + tn * (b - a), denom) for a, b in vw))
    return out


@dataclass(frozen=True)
class DpVerifyReport:
    total: int
    expected: int
    duplicate_pairs: tuple[tuple[int, int], ...]
    infeasible: tuple[int, ...]
    non_simple: tuple[int, ...]

    @property
    def ok(self) -> bool:
        clean = not (self.duplicate_pairs or self.infeasible or self.non_simple)
        return clean and self.total == self.expected

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "total": self.total,
            "expected": self.expected,
            "duplicate_pairs": [list(p) for p in self.duplicate_pairs],
            "infeasible": list(self.infeasible),
            "non_simple": list(self.non_simple),
        }


def dp_verify(
    hrep: HPolytope,
    points: Sequence[Sequence],
    expected_count: int,
) -> DpVerifyReport:
    """Check that the points are ``expected_count`` distinct simple vertices of hrep.

    Points are told apart by their integer state (``polytope.cleared``); see
    ``dp_verify_states``.
    """
    states = (polytope.cleared(hrep, exactla.vec(p)) for p in points)
    return dp_verify_states(hrep, states, expected_count)


def dp_verify_states(
    hrep: HPolytope,
    states: Iterable[State],
    expected_count: int,
) -> DpVerifyReport:
    """``dp_verify`` for points given as integer states in lowest terms.

    A repeated state within the call is a duplicate pair.  A new state is
    located and judged once per hrep object, which keeps the verdict with
    that state object; a later call finds both, so the top stage after
    ``verify_construction`` decides nothing again and its duplicate check
    holds the t-map's states, not copies.  An equal polytope decides again.
    """
    verdicts = hrep._point_verdicts
    seen: dict[State, int] = {}
    duplicates = []
    flagged: dict[str, list[int]] = {"infeasible": [], "non_simple": []}
    for idx, state in enumerate(states):
        entry = verdicts.get(state)
        if entry is None:
            try:
                point = polytope.locate(hrep, *state)
            except NotFeasible:
                verdict = "infeasible"
            else:
                verdict = "simple" if polytope.is_simple(hrep, point) else "non_simple"
            entry = verdicts[state] = state, verdict
        state, verdict = entry
        if state in seen:
            duplicates.append((seen[state], idx))
            continue
        seen[state] = idx
        if verdict != "simple":
            flagged[verdict].append(idx)
    return DpVerifyReport(
        total=len(seen) + len(duplicates),
        expected=expected_count,
        duplicate_pairs=tuple(duplicates),
        infeasible=tuple(flagged["infeasible"]),
        non_simple=tuple(flagged["non_simple"]),
    )
