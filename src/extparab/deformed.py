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
and every product vertex is simple.  ``dp_verify`` checks exactly that on
points given as integer states, deciding each state once per polytope object,
and returns a structured report instead of raising so callers can aggregate.
``extend`` is the vertex formula on states: (x, v + sigma (w - v)) in lowest
terms, with only the tail reduced and x's numerators shared.  ``dp_vrep``
calls it with sigma = phi(p) for every product vertex; the tower's t-map, a
witness apart from it, calls it with its own sweep value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd
from operator import add, mul, truediv
from typing import Iterable, Sequence

from . import exactla, polytope
from .errors import DimensionMismatch, InternalMismatch, NotFeasible, SizeMismatch
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
    def _support(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        # (indices, values times the lcm S of their denominators, S) of the
        # nonzero coefficients: one for the tower's phi, d/2 for its phi'.
        indices = tuple(i for i, a in enumerate(self.coeffs) if a)
        return (indices, *exactla.common_denominator([self.coeffs[i] for i in indices]))

    def scaled_at(self, nums: Sequence[int], denom: int) -> tuple[int, int]:
        """The value at nums/denom (denom > 0) as the unreduced pair (S coeffs . nums, S denom)."""
        indices, ints, scale = self._support
        return sum(map(mul, ints, map(nums.__getitem__, indices))), scale * denom

    def scaled_columns(self, columns: Sequence, denoms: Sequence[int]) -> tuple[list, list]:
        """``scaled_at`` at every point k, whose coordinates are columns[i][k] over denoms[k]: the
        numerators and the denominators, each a list, one column product per nonzero coefficient."""
        indices, ints, scale = self._support
        values = repeat(0, len(denoms))
        for i, a in zip(indices, ints):
            values = map(add, values, map(mul, repeat(a), columns[i]))
        return list(values), [scale * q for q in denoms]

    def rescaled(self, scales: Sequence[int]) -> "Functional":
        """This functional in the coordinates y = scales * x: coefficients coeffs / scales."""
        return Functional(map(truediv, self.coeffs, scales))

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
    for row, b, b_prime in zip(fiber_rows, beta, beta_prime):
        new_rows.append(tuple((b - b_prime) * a for a in phi.coeffs) + row)  # (b - b') phi, B_i
    return HPolytope(tuple(new_rows), poly.b + beta)


def extend(state: State, fiber: State, sigma_num: int, sigma_den: int) -> State:
    """(x, v + sigma (w - v)) in lowest terms, x = X/D in lowest terms (else InternalMismatch),
    fiber = (V | W) over E, sigma = sigma_num/sigma_den with sigma_den > 0.  The content is
    gcd(k, *T) for T = V sigma_den + sigma_num (W - V) and k = E sigma_den/gcd(D, E sigma_den),
    so only T is reduced, and X's own int objects lead the result where k is that content."""
    (nums, denom), (pair, pair_denom) = state, fiber
    if denom < 1 or gcd(denom, *nums) != 1:
        raise InternalMismatch("extend needs an inner state in lowest terms")
    half, tail_denom = len(pair) // 2, pair_denom * sigma_den
    g = gcd(denom, tail_denom)
    tail = [a * sigma_den + sigma_num * (b - a) for a, b in zip(pair[:half], pair[half:])]
    c = gcd(k := tail_denom // g, *tail)
    k, lift = k // c, denom // g
    head = nums if k == 1 else [a * k for a in nums]
    return (*head, *[a // c * lift for a in tail]), denom * k


def dp_vrep(
    p_states: Sequence[State],
    phi: Functional,
    v_verts: Sequence[Sequence],
    w_verts: Sequence[Sequence],
) -> list[State]:
    """All m*n product vertices (p, v_j + phi(p) (w_j - v_j)), as states, p given as states.

    v_verts and w_verts must be aligned index by index under the fiber
    bijection; the alignment is the caller's (sorted-parameter) construction
    and is deliberately not re-derived here, so that alignment bugs surface
    in dp_verify instead of being silently repaired.  Each pair is cleared
    once to integers V, W over one denominator E.
    """
    if len(v_verts) != len(w_verts):
        raise SizeMismatch("fiber vertex lists differ in length")
    pairs = []
    for k, (v, w) in enumerate(zip(v_verts, w_verts)):
        if len(v) != len(w):
            raise DimensionMismatch(f"fiber pair {k}: v has dim {len(v)}, w has dim {len(w)}")
        pairs.append(exactla.common_denominator((*v, *w)))
    sigmas = [phi.scaled_at(*p) for p in p_states]  # phi(p) once per p, for all its pairs
    return [extend(p, pair, *sigma) for p, sigma in zip(p_states, sigmas) for pair in pairs]


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
    states: Iterable[State],
    expected_count: int,
) -> DpVerifyReport:
    """Check that the points, given as integer states in lowest terms, are
    ``expected_count`` distinct simple vertices of hrep.

    A repeated state within the call is a duplicate pair; a state not in
    lowest terms, which would hide one, raises InternalMismatch.  A new state
    is located and judged once per hrep object, which keeps its verdict; a
    later call finds it, so the top stage after ``verify_construction``
    decides nothing again.  An equal polytope decides again.
    """
    verdicts = hrep._point_verdicts
    seen: dict[State, int] = {}
    duplicates = []
    flagged: dict[str, list[int]] = {"infeasible": [], "non_simple": []}
    for idx, state in enumerate(states):
        verdict = verdicts.get(state)
        if verdict is None:
            nums, denom = state
            if denom <= 0 or gcd(denom, *nums) != 1:
                raise InternalMismatch(f"point {idx} is not a state in lowest terms")
            try:
                point = polytope.locate(hrep, nums, denom)
            except NotFeasible:
                verdict = "infeasible"
            else:
                verdict = "simple" if polytope.is_simple(hrep, point) else "non_simple"
            verdicts[state] = verdict
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
