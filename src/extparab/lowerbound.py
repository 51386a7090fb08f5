"""Experiment harness: chord scan, path certificate, iteration counts.

The instance maximizes phi^2 - c phi - phi' over the tower with n = 4d,
where c = 1 - 3/(2M - 2).  In the 2D shadow the vertices are
x(t) = (t, t^2/(M-1) - t)/(M-1) and the inner product of the gradient at
x(t) with the chord to x(t+k) collapses to k (3/2 - k)/(M-1)^2, positive
exactly for k = 1.  Because the objective is invariant under the projection
and edges upstairs map to edges and chords downstairs, scanning all chords in
2D certifies that no shortcut exists anywhere on the tower; the lift itself
is certified separately by walking the actual edge graph, on the tower's
twin y = s * x with f(y / s).  One checker, ``_certified_walk``, does that
for any pivot rule, vertex by vertex: the path certificate is its
first-index run, and every run the iteration experiment times is one too.

``chord_scan`` checks every (t, k) pair two independent ways, as numerators
over 2 (M-1)^2: the closed form k (3 - 2k), and the direct product
g_t k - 2 (Y_s - Y_t) with s = t + k, g_t = 4t + 5 - 2M, Y_s = s (s - M + 1).
Row t is one integer whose w-bit lane s holds bias + g_t s - 2 Y_s + c_t,
c_t = 2 Y_t - g_t t; it must equal the M-lane window, from lane M-1-t, of
one integer whose lane k + M - 1 holds bias + k (3 - 2k).  Rows advance by
two additions, row_t = row_{t-1} + step_t and step_t = step_{t-1} + a_t,
with a_t = D2g_t S + D2c_t ONES (lane s of S holds s, of ONES 1) built from
the second differences of the values g_t and c_t themselves, from the lanes
bias - 2 Y_s with g, c and step 0 before t = 0.  By induction each row is
exactly the integer above for any gradient values, faulty ones included;
a_t is rebuilt only when it changes, at t = 0, 1, 2 here (D2g = 0, and
c_t = -2t^2 - 3t gives D2c = -4).  The bias adds bounds on each summand,
never the identity itself: with G = max |g_t|, taken at t = 0 or M-1 as g_t
is affine, |g_t s| <= G (M-1), 0 <= -2 Y_s <= (M-1)^2/2 and
|c_t| <= (M-1)^2/2 + G (M-1), and |k (3 - 2k)| peaks at k = +-(M-1).  w is
the bit length of 2 bias rounded up to whole bytes, so every lane on both
sides lies in [0, 2^w).  An integer has one base-2^w digit string, so the
two are equal exactly when every lane, i.e. every pair, agrees.  The G and
closed-form bounds are checked as the values are made.  A disagreement
between the two computations raises InternalMismatch.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import activeset, extension
from .activeset import QuadraticObjective, make_rule, RULE_CONSUMES_SEED
from .errors import (
    BadParameters,
    CertificateFailure,
    ExtparabError,
    InternalMismatch,
    ScanCapExceeded,
)
from .extension import ExtendedParabola

SCAN_CAP_DEFAULT = 4096


@dataclass(frozen=True)
class ChordScanReport:
    m_count: int
    pairs_checked: int
    violations: tuple[tuple[int, int, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "M": self.m_count,
            "pairs_checked": self.pairs_checked,
            "violations": [[t, k, str(v)] for t, k, v in self.violations],
            "ok": self.ok,
        }


def _closed_numerator(k: int) -> int:
    """k (3 - 2k): the chord's inner product in closed form, over 2 (M-1)^2."""
    return k * (3 - 2 * k)


def _gradient_numerator(m_count: int, t: int) -> int:
    """4t + 5 - 2M: the x1-part of the gradient at x(t), over 2 (M-1)."""
    return 4 * t + 5 - 2 * m_count


def _lane_layout(m_count: int) -> tuple[int, int, int, int]:
    """(gradient bound, closed-form bound, bias, lane bytes) of the packed scan."""
    g_bound = max(abs(_gradient_numerator(m_count, t)) for t in (0, m_count - 1))
    closed_bound = max(abs(_closed_numerator(k)) for k in (1 - m_count, m_count - 1))
    bias = max(2 * g_bound * (m_count - 1) + (m_count - 1) ** 2, closed_bound)
    return g_bound, closed_bound, bias, ((2 * bias).bit_length() + 7) // 8


def chord_scan(m_count: int, cap: int | None = SCAN_CAP_DEFAULT) -> ChordScanReport:
    """Exhaustive scan of all chords: improving iff one step forward.

    For every t <= M-2 and every valid k != 0 the inner product must be
    positive exactly when k = 1; at t = M-1 (the optimum) every chord must be
    non-improving.  Each pair is checked as the closed form and the direct
    dot product, one packed row of pairs per t (see the module docstring); a
    row that differs is re-checked pair by pair and its first mismatch, like
    a gradient or closed form outside its lane bound, raises
    InternalMismatch.  The O(M^2) sweep refuses M beyond the cap.
    """
    if m_count < 2:
        raise BadParameters(f"M must be at least 2, got {m_count}")
    if cap is not None and m_count > cap:
        raise ScanCapExceeded(f"M = {m_count} exceeds the scan cap {cap}; raise or disable the cap")
    denom = 2 * (m_count - 1) ** 2
    g_bound, closed_bound, bias, width = _lane_layout(m_count)
    closed_bytes, s_bytes, base_bytes, bad = bytearray(), bytearray(), bytearray(), []
    for k in range(1 - m_count, m_count):
        closed_num = _closed_numerator(k)
        if abs(closed_num) > closed_bound:
            raise InternalMismatch(f"closed form {closed_num} at k = {k} exceeds its lane bound")
        closed_bytes += (bias + closed_num).to_bytes(width, "little")
        if k and (closed_num > 0) != (k == 1):
            bad.append((k, Fraction(closed_num, denom)))
    for s in range(m_count):
        s_bytes += s.to_bytes(width, "little")
        base_bytes += (bias + 2 * s * (m_count - 1 - s)).to_bytes(width, "little")  # bias - 2 Y_s
    closed_lanes = int.from_bytes(closed_bytes, "little")
    s_lanes, base_lanes = int.from_bytes(s_bytes, "little"), int.from_bytes(base_bytes, "little")
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * m_count, "little")
    lane_bits, mask = 8 * width, (1 << 8 * width * m_count) - 1
    violations, row, step, last, d2 = [], base_lanes, 0, (0, 0, 0, 0), None
    for t in range(m_count):
        g_num = _gradient_numerator(m_count, t)
        if abs(g_num) > g_bound:
            raise InternalMismatch(f"gradient {g_num} at t = {t} exceeds its lane bound")
        c_t = -2 * t * (m_count - 1 - t) - g_num * t  # 2 Y_t - g_t t
        dg, dc = g_num - last[0], c_t - last[1]  # row - row_{t-1} = dg S + dc ONES
        if (d2_t := (dg - last[2], dc - last[3])) != d2:
            d2, a_t = d2_t, d2_t[0] * s_lanes + d2_t[1] * ones
        step += a_t
        row += step
        last = (g_num, c_t, dg, dc)
        if row != (closed_lanes >> lane_bits * (m_count - 1 - t)) & mask:
            for k in range(-t, m_count - t):
                closed_num = _closed_numerator(k)
                direct_num = g_num * k - 2 * k * (2 * t + k - m_count + 1)
                if k and direct_num != closed_num:
                    raise InternalMismatch(
                        f"numerators {closed_num} != {direct_num} at (t, k) = ({t}, {k})"
                    )
            raise InternalMismatch(f"packed row t = {t} differs, but none of its pairs does")
        violations.extend((t, k, v) for k, v in bad if -t <= k < m_count - t)
    return ChordScanReport(m_count, m_count * (m_count - 1), tuple(violations))


@dataclass(frozen=True)
class PathStep:
    t: int
    improving_edges: int
    successor_t: int | None


@dataclass(frozen=True)
class PathCertificate:
    m_count: int
    entries: tuple[PathStep, ...]

    def to_json_dict(self) -> dict:
        return {"M": self.m_count, "entries": [asdict(e) for e in self.entries]}


def _certified_walk(
    ext: ExtendedParabola, f: QuadraticObjective, rule: activeset.PivotRule
) -> Iterator[PathStep]:
    """The active-set method's walk from vertex 0 under ``rule``, certified vertex by vertex.

    The walk is the runner's ``activeset.walk`` on the twin y = s * x with
    f(y / s), with all its checks, capped at M moves.  Each point it reaches,
    in lowest terms, must be the vertex map's y state
    (``extension.state_for_t``) and have exactly one improving edge, none at
    the optimum t = M - 1; the walk's strict increase of f keeps the M
    vertices distinct.  Any deviation, or any error raised at vertex t or on
    the edge leaving it (vertex 0's start included), raises
    CertificateFailure naming the offending t.  Yields one PathStep per t.
    """
    m_top = ext.params.vertex_count
    records = None
    for t in range(m_top):
        try:
            if records is None:  # vertex 0 starts the walk
                nums, denom = extension.state_for_t(ext, 0)
                f_y = f.rescaled(ext.scales)
                start = activeset.start_point(ext.twin, f_y, [Fraction(a, denom) for a in nums])
                records = activeset.walk(ext.twin, f_y, start, rule, m_top)
            point, improving, _ = next(records)
            state = extension.state_for_t(ext, t)
        except ExtparabError as exc:
            raise CertificateFailure(f"t = {t}: {exc}") from exc
        if t and (point.nums, point.denom) != state:
            raise CertificateFailure(f"t = {t - 1}: improving edge does not reach vertex t + 1")
        expected = 0 if t == m_top - 1 else 1
        if len(improving) != expected:
            raise CertificateFailure(
                f"t = {t}: {len(improving)} improving edges, expected {expected}"
            )
        yield PathStep(t, expected, t + 1 if expected else None)


def monotone_path_check(
    ext: ExtendedParabola, f: QuadraticObjective
) -> PathCertificate:
    """Certify the unique-improving-edge path t -> t+1 on the full tower.

    At every non-optimal vertex exactly one of the d edges improves, and
    following it lands exactly on the next indexed vertex; the optimum has
    none.  The moves are ``_certified_walk``'s under the first-index rule.
    """
    entries = _certified_walk(ext, f, activeset.FirstIndex())
    return PathCertificate(ext.params.vertex_count, tuple(entries))


@dataclass(frozen=True)
class ExperimentRow:
    rule: str
    seed: int | None
    vertices_visited: int
    edge_moves: int
    loop_iterations: int
    wall_time_ms: float


@dataclass(frozen=True)
class ExperimentTable:
    n: int
    d: int
    m_count: int
    rows: tuple[ExperimentRow, ...]

    def to_csv(self) -> str:
        lines = ["rule,seed,vertices_visited,edge_moves,loop_iterations,wall_time_ms"]
        for r in self.rows:
            seed = "" if r.seed is None else str(r.seed)
            lines.append(
                f"{r.rule},{seed},{r.vertices_visited},{r.edge_moves},"
                f"{r.loop_iterations},{r.wall_time_ms:.3f}"
            )
        return "\n".join(lines) + "\n"


def iteration_experiment(
    ext: ExtendedParabola, f: QuadraticObjective, rules: Sequence[str], seeds: Sequence[int]
) -> ExperimentTable:
    """Run every rule (and every seed, for seeded rules) on ``ext``'s twin and ``f`` from vertex 0.

    Requires the n = 4d regime, in which the vertex count is 2^d.  Every run
    is a ``_certified_walk``: it must follow the vertex map t -> t + 1 with
    exactly one improving edge at each of its 2^d vertices, so all runs
    visit the identical sequence of 2^d distinct vertices in 2^d - 1 edge
    moves, and each row's wall time is that certified run's.  Any deviation
    raises CertificateFailure prefixed with the run's ``rule/seed``.  The
    tower or objective may be corrupted, for negative controls.
    """
    n, d = ext.params.n, ext.params.d
    if n != 4 * d:
        raise BadParameters(f"iteration experiment requires n = 4d, got n={n}, d={d}")
    runs = ((name, s) for name in rules for s in (seeds if name in RULE_CONSUMES_SEED else [None]))

    rows = []
    for rule_name, seed in runs:
        rule = make_rule(rule_name, seed)
        t0 = time.perf_counter()
        try:
            visited = sum(1 for _ in _certified_walk(ext, f, rule))
        except CertificateFailure as exc:
            raise CertificateFailure(f"{rule_name}/{seed}: {exc}") from exc
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        moves = visited - 1  # one loop iteration per move
        rows.append(ExperimentRow(rule_name, seed, visited, moves, moves, elapsed_ms))
    return ExperimentTable(n=n, d=d, m_count=ext.params.vertex_count, rows=tuple(rows))
