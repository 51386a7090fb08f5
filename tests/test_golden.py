"""Golden outputs: SHA-256 digests of files the hot path must not change.

The walk digests were taken before the active-set walk moved to integer
numerators and sparse elimination, from the Fraction-only implementation;
the verify and build digests before the simple-vertex test left Fraction
rank for the integer inverse and the fiber points were cached (the fault
and d = 10 verify digests before the tower kept its vertices and verdicts); the scan
digest before the chord scan moved from a per-pair loop to packed rows; the
d = 14 walk digests before ``run`` walked the equilibrated twin.
A later change to the hot path that alters a single byte of a trace, a
plot row, a path certificate, a verify report, a vertex file or a scan
report fails here, even when every structural check still passes.  All
four rules walk the same vertex path, so they share one pair of digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extparab import lowerbound
from extparab.activeset import pullback_objective
from extparab.cli import main
from extparab.extension import ConstructionParams, build

RUN_D8 = {
    "trace.json": "60b7e2a6e34f99cf29ca5922d70dd4b66ce1ccef5362d4c687a68c3e8b040500",
    "plot.csv": "5db7a4de8132c05f6cc1a230ca1c0f7fa8c0b4575732f8414a1e864ec0223e1c",
}
# The benchmark's own instance: 4,096 steps whose coordinates are far wider
# than at d = 8.  Taken before the runner kept its iterate as integer
# numerators over one denominator and the trace writer stopped using
# json.dumps.
RUN_D12 = {
    "trace.json": "992d31c5bbe5a7d4a4fd2598831af01551724266160ae864c10e48be0dc1f113",
    "plot.csv": "1693fda6a0398af757d869582f9161f7d71019e75ab2d2adb471a3c2b9b096e9",
}
# 16,384 steps, where the walk's integers are wider again than at d = 12.
# Taken before ``run`` walked the polytope's gcd-equilibrated twin and mapped
# each step back to the tower's coordinates as it wrote it.
RUN_D14 = {
    "trace.json": "5a39dc612074f3ae7615fc7e97053929b2c8ac9b48900642645ed46831c62af3",
    "plot.csv": "c0e5d084a8d635eb1eaf92cddca81a6f58c522dd0071f60d43487c9e564b3abe",
}
# The only n != 4d walk, and a walk cut short into a MaxIterations trace
# (exit 1).  Taken before the trace steps kept the runner's integer state
# and the writers stopped going through Fraction vertices.
RUN_OTHER = {
    "n48-d6": (
        ["--n", "48", "--d", "6"],
        0,
        {
            "trace.json": "543c1b52d9f4af8e5484a896cc2c055789dd4ba5c9f29b22f47c0aa03ec064d1",
            "plot.csv": "f3186c1e6592cf11aeada83cf759d28cb514c64345cf42a9274cfed7289ef4d7",
        },
    ),
    "d6-max-iter-3": (
        ["--d", "6", "--max-iter", "3"],
        1,
        {
            "trace.json": "716d4d797d31a9db84093c7e721c0f1a9e91b6be735b6270a72c19ae6cb3ec03",
            "plot.csv": "8c8aa4bdb384cb0f8552c3d2fcdf3ccc3071a2e2a0c1dc2b716731afaa5cfd1e",
        },
    ),
    # The smallest step shape (two coordinates, two tight rows), and a trace
    # of one step that has no direction (exit 1).  Taken before each step was
    # written with one template for its shape.
    "d2": (
        ["--d", "2"],
        0,
        {
            "trace.json": "45dfb48fd66ecf16f7e3451ffcb3effb3a45f742b2fa7b901ac3bc84d4185fbd",
            "plot.csv": "a1e81e08ad5685ba01ffcb79e60a20b511c19cf79f25fd4900dd0b0a99294be6",
        },
    ),
    "d4-max-iter-0": (
        ["--d", "4", "--max-iter", "0"],
        1,
        {
            "trace.json": "774a436ac414b4c8a5394e271dcc4fc27a10937a255894e111e64d44f4e7826f",
            "plot.csv": "d61b8957f5f0a11c755ac5b3e6ee556e790de3a4d6b4516eabfa9eb341285571",
        },
    ),
}
CERTIFICATE_N48_D6 = "f052096e69ae72405847851ac84af3bbf5497d296b46059d5cab0049c5d2650b"
VERIFY_REPORTS = {
    "d8": (["--d", "8"], "23b0be8f5e98382bc64b91854d762dde9a8dd32b97de6e3181ada39e8a0d519d"),
    "n48-d6": (["--n", "48", "--d", "6"], "460d8af8876f3673f07725fd9ce5b25376d08fa1e29e619e4dc756740416a6e1"),
    # 4,096 top-stage vertices; taken before the tower's checks ran on its equilibrated twin.
    "d12": (["--d", "12"], "02e54fdecf32f02bfdb73d131bdd1c645d4692b094652716b3c878facd7a02a8"),
}
# verify's two injected faults (exit 1) and the d = 10 tower: the report and
# stdout, with the report's path written as <report>.  Taken before the tower
# kept the vertices it built and its simple-vertex verdicts, which a stale
# entry would let a fault slip past.
VERIFY_OTHER = {
    "d4-vertex-fault": (
        ["--d", "4", "--inject-fault", "vertex"],
        1,
        "89a123e2dfb62e11b2decb173c989266ce9f1eb2ff0302a8cdf317b0e0d05f63",
        "a98c1aa5f436fd32e803fddbf5e62e651659bfcc01af6eb20923a0e89cfe7419",
    ),
    "d4-phi-weight-fault": (
        ["--d", "4", "--inject-fault", "phi-weight"],
        1,
        "40d8d7e793039fab1d0d2feeec3d2e17504c8de40a1ca57b820237618a2342ba",
        "f74e66c7993e28781ae538c84c295c5e2e21a1b1aa5a2481a558a9397a0ea90a",
    ),
    # The n = 8d family's vertex fault, taken before the certify path kept
    # integer states from the product map to the .ext writer.
    "n48-d6-vertex-fault": (
        ["--n", "48", "--d", "6", "--inject-fault", "vertex"],
        1,
        "1f7ba6f962165e1744eca84333db45186806df6d14847f2dfc74941bd10b8239",
        "ffdf458f9d0c8612c993aee5347b014a4c15d53dfa45ae18bc31be052750d314",
    ),
    "d10": (
        ["--d", "10"],
        0,
        "112c5579ed9e285c26cafbad29def45b3d046f8687084e88bd008a65c9453586",
        "31ef217fcc36798dd8f9644556546d66a53e7f243b0e7dc55ea9eddd17ceb27b",
    ),
}
BUILD_D8_EXT = "db14e4b67eac32563a2cee34ee3c750154de7fed8f6bce8fa908656bee5f55e0"
# The n = 8d family's vertex and facet files, taken before the vertex file
# was written from integer states.
BUILD_N48_D6 = {
    "ext": "20ffc0a6920d72dcb9645ac0ba190f8da78357276de5b41a8cdfa123631209f8",
    "ine": "692329795e451aa14a6fdd16fb134c0ac9f1aa608d510cd0a04171aa03202b2c",
}
# All three files at d = 10, taken before the vertex maps ran on the equilibrated twin and
# the vertex file mapped each state back to the tower's coordinates.
BUILD_D10 = {
    "ext": "aa36f19bad8c55b2ca58fcd71e5f335c0815b1e16b3d98570b348e92fa42c692",
    "ine": "8392ddf06fa12da06e83c29212bc7d7695ad827b8500a129806621033a7653cb",
    "json": "8615b9016c3e5b392a66d3f45e112496537404ca4c540fd422ff267f38a06f6a",
}
# Path certificates at n = 4d, and report's CSV at d = 6 without its wall-time column,
# taken before the certificate and report's walks ran on the equilibrated twin.
CERTIFICATES = {
    (32, 8): "42b9af03052cee4b7f2415a7e6096251b81828187b28de469bdf93a1a8abbd7e",
    (40, 10): "629952a6311a2c5cc9198eba34ef4833756500c8b0d5a4e4d032c197631baa13",
}
REPORT_D6_CSV = "71b412e30896c8ced734d222703fcc597e216253d4c4623b54bdf85fa8fe4aa3"
SCAN_M4096 = "1a8adcbcc49ef01d1599815f845ad0ed515018eb8e8296c5d7aafa9eb8806f6f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("rule", ["first", "last", "random", "adversarial"])
def test_run_d8_outputs_are_unchanged(tmp_path, capsys, rule):
    prefix = tmp_path / rule
    assert main(["run", "--d", "8", "--rule", rule, "--out", str(prefix)]) == 0
    capsys.readouterr()
    digests = {suffix: sha256((tmp_path / f"{rule}.{suffix}").read_bytes()) for suffix in RUN_D8}
    assert digests == RUN_D8


def test_run_d8_outputs_are_unchanged_under_optimize_flag(tmp_path):
    # python -O strips assert statements; the walk's checks are explicit
    # raises, so an optimized run writes the same two files.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    prefix = tmp_path / "first"
    done = subprocess.run(
        [sys.executable, "-O", "-m", "extparab.cli", "run", "--d", "8", "--out", str(prefix)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    digests = {suffix: sha256((tmp_path / f"first.{suffix}").read_bytes()) for suffix in RUN_D8}
    assert digests == RUN_D8


def test_run_d12_outputs_are_unchanged(tmp_path, capsys):
    prefix = tmp_path / "first"
    assert main(["run", "--d", "12", "--rule", "first", "--out", str(prefix)]) == 0
    capsys.readouterr()
    digests = {suffix: sha256((tmp_path / f"first.{suffix}").read_bytes()) for suffix in RUN_D12}
    assert digests == RUN_D12


def test_run_d14_outputs_are_unchanged(tmp_path, capsys):
    prefix = tmp_path / "first"
    assert main(["run", "--d", "14", "--rule", "first", "--out", str(prefix)]) == 0
    capsys.readouterr()
    digests = {suffix: sha256((tmp_path / f"first.{suffix}").read_bytes()) for suffix in RUN_D14}
    assert digests == RUN_D14


@pytest.mark.parametrize("case", sorted(RUN_OTHER))
def test_other_run_outputs_are_unchanged(tmp_path, capsys, case):
    args, code, expected = RUN_OTHER[case]
    prefix = tmp_path / "run"
    assert main(["run", *args, "--out", str(prefix)]) == code
    capsys.readouterr()
    digests = {suffix: sha256((tmp_path / f"run.{suffix}").read_bytes()) for suffix in expected}
    assert digests == expected


def test_path_certificate_n48_d6_is_unchanged():
    ext = build(ConstructionParams(n=48, d=6))
    cert = lowerbound.monotone_path_check(ext, pullback_objective(ext))
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert sha256(text.encode()) == CERTIFICATE_N48_D6


@pytest.mark.parametrize("n, d", sorted(CERTIFICATES))
def test_path_certificates_are_unchanged(n, d):
    ext = build(ConstructionParams(n=n, d=d))
    cert = lowerbound.monotone_path_check(ext, pullback_objective(ext))
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert sha256(text.encode()) == CERTIFICATES[n, d]


def test_report_d6_csv_is_unchanged(tmp_path, capsys):
    prefix = tmp_path / "r"
    assert main(["report", "--d", "6", "--out", str(prefix)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "r_d6.csv").read_text().splitlines(keepends=True)
    timeless = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)  # wall_time_ms dropped
    assert sha256(timeless.encode()) == REPORT_D6_CSV


@pytest.mark.parametrize("case", sorted(VERIFY_REPORTS))
def test_verify_report_is_unchanged(tmp_path, capsys, case):
    args, digest = VERIFY_REPORTS[case]
    report = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(report)]) == 0
    capsys.readouterr()
    assert sha256(report.read_bytes()) == digest


@pytest.mark.parametrize("case", sorted(VERIFY_OTHER))
def test_verify_outputs_are_unchanged(tmp_path, capsys, case):
    args, code, report_digest, stdout_digest = VERIFY_OTHER[case]
    report = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(report)]) == code
    stdout = capsys.readouterr().out.replace(str(report), "<report>")
    assert sha256(report.read_bytes()) == report_digest
    assert sha256(stdout.encode()) == stdout_digest


def test_build_d8_ext_is_unchanged(tmp_path, capsys):
    prefix = tmp_path / "q8"
    assert main(["build", "--d", "8", "--format", "ext", "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / "q8.ext").read_bytes()) == BUILD_D8_EXT


@pytest.mark.parametrize("fmt", sorted(BUILD_N48_D6))
def test_build_n48_d6_file_is_unchanged(tmp_path, capsys, fmt):
    prefix = tmp_path / "q"
    assert main(["build", "--n", "48", "--d", "6", "--format", fmt, "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / f"q.{fmt}").read_bytes()) == BUILD_N48_D6[fmt]


@pytest.mark.parametrize("fmt", sorted(BUILD_D10))
def test_build_d10_file_is_unchanged(tmp_path, capsys, fmt):
    prefix = tmp_path / "q"
    assert main(["build", "--d", "10", "--format", fmt, "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / f"q.{fmt}").read_bytes()) == BUILD_D10[fmt]


def test_scan_m4096_report_is_unchanged(tmp_path, capsys):
    report = tmp_path / "scan.json"
    assert main(["scan", "--M", "4096", "--out", str(report)]) == 0
    capsys.readouterr()
    assert sha256(report.read_bytes()) == SCAN_M4096
