"""The benchmark workloads: walk, certify and scan.

Each workload drives extparab from outside, through ``extparab.cli.main`` and
public functions.  ``setup`` runs once before the first timed op; ``op`` is
one timed operation; ``check`` verifies its output exactly and returns the
problems found (none for a correct op) with the op's work count: edge moves
for walk, certified vertices for certify, chord pairs for scan.

Constructor defaults are the benchmark instances; the tests build the same
workloads on small instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from extparab import activeset, cli, deformed, extension, lowerbound, polytope
from extparab.extension import ConstructionParams

from . import layers

RULES = ("first", "last", "random", "adversarial")


def _quiet_cli(argv: list[str]) -> int:
    """extparab.cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _tower_setup(params: ConstructionParams):
    """Build the tower, its objective and the start vertex, as a run begins."""
    ext = extension.build(params)
    return ext, activeset.pullback_objective(ext), extension.vertex_for_t(ext, 0)


class Workload:
    item = ""  # one unit of work, for the printed report

    def setup(self, seed: int):
        raise NotImplementedError

    def op(self, ctx, index: int, workdir: Path):
        raise NotImplementedError

    def check(self, ctx, out) -> tuple[list[str], int]:
        raise NotImplementedError

    def moves(self, items: int) -> int:
        """Edge moves in an op that checked out with this work count."""
        return 0

    def identities(self, items: int, summary, counters) -> list[str]:
        """Count identities a traced op must satisfy; problems found."""
        return []


# ---------------------------------------------------------------------------
# walk: extparab run over the whole tower


@dataclass
class WalkContext:
    ext: object
    order: tuple[str, ...]
    random_seed: int
    reference_digest: str | None = None


@dataclass(frozen=True)
class WalkOutput:
    rule: str
    exit_code: int
    prefix: Path


class Walk(Workload):
    """``extparab run --d 12``; the rule cycles over first/last/random/adversarial."""

    item = "edge move"

    def __init__(self, d: int = 12):
        self.params = ConstructionParams(n=4 * d, d=d)

    def setup(self, seed: int) -> WalkContext:
        ext, _, _ = _tower_setup(self.params)
        rng = random.Random(seed)
        order = list(RULES)
        rng.shuffle(order)
        return WalkContext(ext, tuple(order), rng.randrange(1, 2**31))

    def op(self, ctx: WalkContext, index: int, workdir: Path) -> WalkOutput:
        rule = ctx.order[index % len(ctx.order)]
        prefix = workdir / f"walk{index}"
        argv = ["run", "--d", str(self.params.d), "--rule", rule, "--out", str(prefix)]
        if rule in activeset.RULE_CONSUMES_SEED:
            argv += ["--seed", str(ctx.random_seed)]
        return WalkOutput(rule, _quiet_cli(argv), prefix)

    def check(self, ctx: WalkContext, out: WalkOutput) -> tuple[list[str], int]:
        if out.exit_code != 0:
            return [f"rule {out.rule}: exit code {out.exit_code}"], 0
        trace_path = Path(f"{out.prefix}.trace.json")
        data = json.loads(trace_path.read_text())
        trace_path.unlink()
        Path(f"{out.prefix}.plot.csv").unlink()
        return walk_trace_problems(data, ctx, out.rule), data["edge_moves"]

    def moves(self, items: int) -> int:
        return items

    def identities(self, items: int, summary, counters) -> list[str]:
        return walk_identities(self.params.d, items, summary, counters)


def walk_trace_problems(data: dict, ctx: WalkContext, rule: str) -> list[str]:
    """Exact checks on one ``run`` trace JSON; sets the run's reference digest."""
    m_top = ctx.ext.params.vertex_count
    problems = []
    if data["terminated"] != "Optimal":
        problems.append(f"rule {rule}: terminated {data['terminated']}")
    if data["edge_moves"] != m_top - 1:
        problems.append(f"rule {rule}: {data['edge_moves']} edge moves, expected {m_top - 1}")
    steps = data["steps"]
    if [step["t"] for step in steps] != list(range(m_top)):
        problems.append(f"rule {rule}: step t labels are not 0..{m_top - 1} in order")
    denom = 2 * (m_top - 1) ** 2
    wrong_f = [k for k, step in enumerate(steps) if Fraction(step["f"]) != Fraction(3 * k, denom)]
    if wrong_f:
        problems.append(f"rule {rule}: f differs from 3t/(2(M-1)^2) at steps {wrong_f[:5]}")
    digest = hashlib.sha256(
        "\n".join(" ".join(step["vertex"]) for step in steps).encode()
    ).hexdigest()
    if ctx.reference_digest is None and not problems:
        ctx.reference_digest = digest
    elif digest != ctx.reference_digest:
        problems.append(f"rule {rule}: vertex sequence differs from the run's first rule")
    return problems


def walk_identities(d: int, moves: int, summary, counters) -> list[str]:
    """Per-op identities proving the wrappers saw every call of a walk."""
    calls = {name: count for name, (count, _) in summary.items()}
    edges = calls.get("polytope.edge_directions", 0)
    inverses = calls.get("exactla.int_inverse_scaled", 0)
    primitives = calls.get("exactla.primitive", 0)
    problems = []
    if not edges == inverses == moves + 1:
        problems.append(
            f"edge_directions {edges} / int_inverse_scaled {inverses} calls, expected {moves + 1}"
        )
    if primitives != d * (moves + 1):
        problems.append(f"primitive {primitives} calls, expected {d * (moves + 1)}")
    offers = counters.get(layers.OFFERS, 0)
    candidates = counters.get(layers.CANDIDATES, 0)
    if not offers == candidates == moves:
        problems.append(
            f"{candidates} direction candidates over {offers} choices, expected one at each of {moves} moves"
        )
    return problems


# ---------------------------------------------------------------------------
# certify: full certification of the n = 8d tower


@dataclass
class CertifyOutput:
    poly: object
    construction: object
    stage_reports: list
    certificate: object
    ine_path: Path
    ext_path: Path
    readback: object = field(default=None)


class Certify(Workload):
    """build, verify_construction, dp_verify per stage, path certificate, .ine/.ext."""

    item = "certified vertex"

    def __init__(self, n: int = 48, d: int = 6):
        self.params = ConstructionParams(n=n, d=d)

    def setup(self, seed: int) -> ConstructionParams:
        _tower_setup(self.params)
        return self.params

    def op(self, ctx, index: int, workdir: Path) -> CertifyOutput:
        return self.read_back(self.certify_and_write(workdir / f"certify{index}"))

    def certify_and_write(self, prefix: Path) -> CertifyOutput:
        ext = extension.build(self.params)
        construction = extension.verify_construction(ext)
        stages = [2] + [level.source_dim + 2 for level in ext.levels]
        stage_reports = [
            deformed.dp_verify(
                extension.stage_polytope(ext, dim),
                extension.stage_vertices(ext, dim),
                expected_count=self.params.level_m(dim),
            )
            for dim in stages
        ]
        certificate = lowerbound.monotone_path_check(ext, activeset.pullback_objective(ext))
        ine_path, ext_path = Path(f"{prefix}.ine"), Path(f"{prefix}.ext")
        ine_path.write_text(polytope.hrep_to_ine(ext.poly))
        ext_path.write_text(polytope.vrep_to_ext(extension.all_vertices(ext)))
        return CertifyOutput(ext.poly, construction, stage_reports, certificate, ine_path, ext_path)

    def read_back(self, out: CertifyOutput) -> CertifyOutput:
        out.readback = polytope.hrep_from_ine(out.ine_path.read_text())
        return out

    def check(self, ctx, out: CertifyOutput) -> tuple[list[str], int]:
        m_top = self.params.vertex_count
        problems = []
        if not out.construction.ok:
            problems.append("verify_construction report is not ok")
        problems += [
            f"dp_verify report {k} is not ok" for k, rep in enumerate(out.stage_reports) if not rep.ok
        ]
        entries = out.certificate.entries
        expected = [1] * (m_top - 1) + [0]
        if out.certificate.m_count != m_top or [e.improving_edges for e in entries] != expected:
            problems.append("certificate is not M entries with one improving edge but the last")
        if out.readback != out.poly:
            problems.append("hrep_from_ine(hrep_to_ine(poly)) != poly")
        declared, rows = ext_size(out.ext_path.read_text())
        if declared != m_top or rows != m_top:
            problems.append(f".ext declares {declared} and has {rows} rows, expected {m_top}")
        out.ine_path.unlink()
        out.ext_path.unlink()
        return problems, len(entries)


def ext_size(text: str) -> tuple[int, int]:
    """(rows declared on the size line, data rows present) of a cdd V-representation."""
    lines = text.splitlines()
    begin = lines.index("begin")
    return int(lines[begin + 1].split()[0]), lines.index("end") - begin - 2


# ---------------------------------------------------------------------------
# scan: the exhaustive 2D chord scan


@dataclass(frozen=True)
class ScanOutput:
    exit_code: int
    report_path: Path


class Scan(Workload):
    """``extparab scan --M 4096``: pure integer lowerbound work."""

    item = "chord pair"

    def __init__(self, m_count: int = 4096):
        self.m_count = m_count

    def setup(self, seed: int) -> int:
        return self.m_count

    def op(self, ctx, index: int, workdir: Path) -> ScanOutput:
        path = workdir / f"scan{index}.json"
        return ScanOutput(_quiet_cli(["scan", "--M", str(self.m_count), "--out", str(path)]), path)

    def check(self, ctx, out: ScanOutput) -> tuple[list[str], int]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}"], 0
        report = json.loads(out.report_path.read_text())
        out.report_path.unlink()
        problems = []
        if report["violations"] or not report["ok"]:
            problems.append(f"{len(report['violations'])} violations")
        expected = self.m_count * (self.m_count - 1)
        if report["pairs_checked"] != expected:
            problems.append(f"{report['pairs_checked']} pairs checked, expected {expected}")
        return problems, report["pairs_checked"]


WORKLOADS = {"walk": Walk, "certify": Certify, "scan": Scan}
