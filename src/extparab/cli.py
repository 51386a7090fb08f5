"""Command-line front end: build / verify / run / scan / report.

Stable contracts for scripting and CI: exit code 0 on success, 1 when a
verification or certificate check fails, a run stops at --max-iter or a file
cannot be written, 2 on usage errors (bad parameters, unknown rule, scan cap
refusal).  All file outputs keep exact ``p/q`` rationals except the
plotting/experiment CSVs: the plot CSV renders decimals to 12 significant
digits, the experiment CSV its wall times to 3 decimals.  Files are written
under ``.part`` names that take the final names only once all are written,
so a failed command renames none of them, except that ``report`` renames each
d's file when that d ends.  ``run`` streams, so its memory is not O(M).
Every command but ``scan`` checks and walks the tower's equilibrated twin
y = s * x and writes x: ``.ine`` from the tower's own rows, ``.ext`` and the
trace mapped back.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import sys
from fractions import Fraction

from . import activeset, deformed, extension, lowerbound, polygons, polytope
from .errors import (
    BadParameters,
    CertificateFailure,
    ExtparabError,
    InternalMismatch,
    ScanCapExceeded,
    UnknownRule,
)
from .extension import ConstructionParams

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _params_from_args(args) -> ConstructionParams:
    n = args.n if args.n is not None else 4 * args.d
    return ConstructionParams(n=n, d=args.d)


# Argument types: argparse turns their ValueError into a usage error (exit 2)
# and names the function in the message.


def _non_empty(values: list, text: str) -> list:
    if not values:
        raise ValueError(f"{text!r} lists nothing")
    return values


def int_list(text: str) -> list[int]:
    return _non_empty([int(part) for part in text.split(",") if part], text)


def tower_dims(text: str) -> list[int]:
    """Tower dimensions as '4,6,8', each one that ``ConstructionParams(n=4d, d)`` accepts."""
    try:
        return [ConstructionParams(n=4 * d, d=d).d for d in int_list(text)]
    except BadParameters as exc:
        raise ValueError(text) from exc


def rule_list(text: str) -> list[str]:
    """Pivot rule names as 'first,last'; index raises ValueError on an unknown name."""
    names = activeset.RULE_NAMES
    return _non_empty([names[names.index(part)] for part in text.split(",") if part], text)


def seed_spec(text: str) -> range | list[int]:
    """Seeds as '1,2,3' or a range '1..10' (inclusive, lo <= hi), which stays a ``range``."""
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if hi - lo >= sys.maxsize:  # the range's len() would overflow
            raise ValueError(f"{text!r} lists more seeds than a range can count")
        return _non_empty(range(lo, hi + 1), text)
    return int_list(text)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _inject_phi_weight_fault(ext):
    weights = list(ext.phi_prime.coeffs)
    idx = next(i for i, w in enumerate(weights) if w != 0)
    weights[idx] *= Fraction(24, 25)
    phi_prime = dataclasses.replace(ext.phi_prime, coeffs=tuple(weights))
    return dataclasses.replace(ext, phi_prime=phi_prime)


@contextlib.contextmanager
def _replaced_on_success(paths: list[str]):
    """Text files written as ``<path>.part``, renamed to ``paths`` if the block succeeds.

    On an error in the block, or with a directory at one of ``paths``, they
    are removed and none is renamed, so earlier files at ``paths`` stay as
    they were; an OSError about a ``.part`` file names its final path.
    """
    temps = [f"{path}.part" for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(temp, "w")) for temp in temps]
        for path in filter(os.path.isdir, paths):  # a rename onto it would fail midway
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        if isinstance(exc, OSError) and exc.filename in temps:
            raise OSError(exc.errno, exc.strerror, paths[temps.index(exc.filename)]) from None
        raise


def cmd_build(args) -> int:
    params = _params_from_args(args)
    ext = extension.build(params)
    prefix = args.out or f"q_d{params.d}_n{params.n}"
    writers = {
        "ine": lambda: polytope.hrep_to_ine(ext.poly),
        "ext": lambda: polytope.vrep_to_ext(extension.all_vertices(ext)),
        "json": lambda: json.dumps(extension.sidecar_json_dict(ext), indent=2) + "\n",
    }
    texts = {f"{prefix}.{fmt}": fn for fmt, fn in writers.items() if args.format in ("all", fmt)}
    with _replaced_on_success(list(texts)) as files:
        for fh, text in zip(files, texts.values()):
            fh.write(text())
    print(
        f"built d={params.d} n={params.n}: "
        f"{ext.poly.num_facets} facets, {params.vertex_count} vertices"
    )
    for path in texts:
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    ext = extension.build(params)
    if args.inject_fault == "phi-weight":
        ext = _inject_phi_weight_fault(ext)

    report = extension.verify_construction(ext)
    normal_equiv = [
        {
            "source_dim": lv.source_dim,
            "ok": polygons.check_normally_equivalent(lv.fiber_start, lv.fiber_end),
        }
        for lv in ext.levels
    ]
    level_reports = []
    stages = [2] + [lv.source_dim + 2 for lv in ext.levels]
    for dim in stages:
        poly = extension.stage_polytope(ext, dim)
        points = extension.stage_vertices(ext, dim)
        if args.inject_fault == "vertex" and dim == stages[-1]:
            (first, *rest), denom = points[0]  # x_0 moved by +1: y_0 by s_0
            points[0] = (first + ext.scales[0] * denom, *rest), denom
        dp_report = deformed.dp_verify(poly, points, expected_count=params.level_m(dim))
        level_reports.append({"dim": dim, **dp_report.to_json_dict()})

    ok = report.ok and all(e["ok"] for e in normal_equiv) and all(e["ok"] for e in level_reports)
    combined = {
        "construction": report.to_json_dict(),
        "normal_equivalence": normal_equiv,
        "stage_vertex_checks": level_reports,
        "ok": ok,
    }
    text = json.dumps(combined, indent=2)
    if args.out:
        with _replaced_on_success([args.out]) as (fh,):
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    for check in report.checks:
        print(f"{'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    print(f"verify d={params.d} n={params.n}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else CHECK_FAILURE


def cmd_run(args) -> int:
    params = _params_from_args(args)
    ext = extension.build(params)
    f = activeset.pullback_objective(ext)
    rule = activeset.make_rule(args.rule, args.seed)
    m_top = params.vertex_count
    max_iter = args.max_iter if args.max_iter is not None else 4 * m_top
    x0 = extension.vertex_for_t(ext, 0)
    c = str(activeset.objective_constant(m_top))
    instance = {"n": params.n, "d": params.d, "M": m_top, "c": c}
    prefix = args.out or f"run_d{params.d}_{args.rule}"
    paths = [f"{prefix}.trace.json", f"{prefix}.plot.csv"]
    with _replaced_on_success(paths) as (trace_out, plot_out):
        visited, terminated = activeset.stream_trace(
            ext, f, x0, rule, max_iter, instance, trace_out, plot_out
        )
    for path in paths:
        print(f"wrote {path}")
    print(f"visited {visited} vertices in {visited - 1} moves")
    if terminated != "Optimal":
        print(f"terminated: {terminated}")
        return CHECK_FAILURE
    return 0


def cmd_scan(args) -> int:
    cap = None if args.cap_override else lowerbound.SCAN_CAP_DEFAULT
    try:
        report = lowerbound.chord_scan(args.M, cap=cap)
    except ScanCapExceeded:  # the library's advice names its cap argument; name the flag
        raise ScanCapExceeded(
            f"M = {args.M} exceeds the scan cap {cap}; pass --cap-override to scan it"
        ) from None
    if args.out:
        with _replaced_on_success([args.out]) as (fh,):
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    print(f"{len(report.violations)} violations / {report.pairs_checked} pairs")
    return 0 if report.ok else CHECK_FAILURE


def cmd_report(args) -> int:
    for d in args.d:
        params = ConstructionParams(n=4 * d, d=d)
        ext = extension.build(params)
        f = activeset.pullback_objective(ext)
        if args.inject_fault == "objective-c":
            # Replace the tuned linear coefficient by 1: chords stop being
            # distinguishable from edges and every certified run must fail.
            linear = tuple(-a - b for a, b in zip(ext.phi.coeffs, ext.phi_prime.coeffs))
            f = activeset.QuadraticObjective(f.quad, linear, f.constant)
        table = lowerbound.iteration_experiment(ext, f, args.rules, args.seeds)
        if args.out:
            path = f"{args.out}_d{d}.csv"
            with _replaced_on_success([path]) as (fh,):
                fh.write(table.to_csv())
            print(f"wrote {path}")
        for row in table.rows:
            seed = "-" if row.seed is None else row.seed
            print(
                f"d={d} rule={row.rule} seed={seed} vertices_visited={row.vertices_visited} "
                f"edge_moves={row.edge_moves} loop_iterations={row.loop_iterations} "
                f"wall_time_ms={row.wall_time_ms:.1f}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extparab",
        description="Exact deformed-product parabola towers and active-set runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a tower and export it")
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--n", type=int, default=None, help="defaults to 4d")
    p_build.add_argument("--out", default=None, help="output path prefix")
    p_build.add_argument("--format", choices=["ine", "ext", "json", "all"], default="all")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="machine-check every construction claim")
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="JSON report path")
    p_verify.add_argument(
        "--inject-fault", choices=["phi-weight", "vertex"], default=None, help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)

    p_run = sub.add_parser("run", help="run the active-set method on the instance")
    p_run.add_argument("--d", type=int, required=True)
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--rule", choices=activeset.RULE_NAMES, default="first")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-iter", type=non_negative_int, default=None)
    p_run.add_argument("--out", default=None, help="output path prefix")
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="exhaustive 2D chord scan")
    p_scan.add_argument("--M", type=int, required=True)
    p_scan.add_argument(
        "--cap-override",
        action="store_true",
        help=f"allow M beyond the default cap of {lowerbound.SCAN_CAP_DEFAULT}",
    )
    p_scan.add_argument("--out", default=None, help="JSON report path")
    p_scan.set_defaults(func=cmd_scan)

    p_report = sub.add_parser(
        "report", help="path certificates and iteration counts across dimensions"
    )
    p_report.add_argument("--d", type=tower_dims, required=True, help="comma list, e.g. 4,6,8")
    p_report.add_argument("--rules", type=rule_list, default="first,last,random")
    p_report.add_argument("--seeds", type=seed_spec, default="1..10", help="'1..10' or '1,2,3'")
    p_report.add_argument("--out", default=None, help="CSV path prefix")
    p_report.add_argument(
        "--inject-fault", choices=["objective-c"], default=None, help=argparse.SUPPRESS
    )
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadParameters, UnknownRule, ScanCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CertificateFailure, InternalMismatch) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except ExtparabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
