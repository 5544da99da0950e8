import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from twistorflow.cli import main


def run_cli(args):
    """Run in-process, capturing stdout; returns (exit code, stdout text)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_einstein_command():
    code, out = run_cli(["einstein", "--family", "canonical", "--n", "2",
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda2_roots"] == "{1/3, 1}"
    code, out = run_cli(["einstein", "--family", "z", "--n", "2", "--format", "json"])
    assert json.loads(out)["lambda2_roots"] == "{1/4}"


def test_ricci_command_exact():
    code, out = run_cli(["ricci", "--family", "z", "--n", "3", "--lambda2", "1/5",
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fiber"] == "20" and payload["base"] == "20"
    assert payload["einstein"] is True
    code, out = run_cli(["ricci", "--family", "canonical", "--n", "2",
                         "--lambda2", "1/3", "--format", "json"])
    assert json.loads(out)["fiber"] == "44/3"


@pytest.mark.parametrize("argv", [
    ["ricci", "--family", "z", "--n", "2", "--lambda2", "1/5"],
    ["ricci", "--family", "canonical", "--n", "2", "--lambda2", "1/3"],
    ["einstein", "--family", "z", "--n", "2"],
    ["einstein", "--family", "canonical", "--n", "2"],
])
def test_csv_row_matches_json(argv):
    code, out = run_cli(argv + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    code, out = run_cli(argv + ["--format", "json"])
    want = {k: v if isinstance(v, str) else json.dumps(v) for k, v in json.loads(out).items()}
    assert rows == [want]


def test_curvature_command():
    code, out = run_cli(["curvature", "--n", "2", "--sectional", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sectional_min"] == "1" and payload["sectional_max"] == "4"
    assert payload["scalar"] == "128"


# exact stdout, so that a float leaking out of the ring (9.333333333333334 for
# 28/3) fails here; the values are the closed forms 4/mu and 4n+8 (Z) and
# 4/mu + 4n mu and 4n+8-4mu (canonical) at mu = 3/7
@pytest.mark.parametrize("argv, stdout", [
    ("ricci --family z --n 3 --lambda2 3/7 --format json",
     '{"base": "20", "einstein": false, "family": "z", "fiber": "28/3", "lambda2": "3/7", '
     '"n": 3, "off_diagonal_zero": true}\n'),
    ("ricci --family canonical --n 2 --lambda2 3/7 --format table",
     "family             canonical\n"
     "n                  2\n"
     "lambda2            3/7\n"
     "fiber              268/21\n"
     "base               100/7\n"
     "einstein           false\n"
     "off_diagonal_zero  true\n"),
    ("curvature --n 2 --sectional --format json",
     '{"n": 2, "ricci_diagonal": "16", "scalar": "128", "sectional_max": "4", '
     '"sectional_min": "1"}\n'),
])
def test_golden_stdout(argv, stdout):
    assert run_cli(argv.split()) == (0, stdout)


# flow and entropy exports: the first 16 hex digits of the SHA-256 of the
# export file ("-" when none is written), of stdout and of stderr, and the
# exit code.  The runs cover both families in csv and json, forward and
# backward, --t-end auto, a floor stop, decimal input, the benchmark's
# failing canonical run (StepTooLarge at step 30023), mu reaching n + 2 and
# a start on the Einstein ray.
EXPORT_GOLDEN = [
    ("flow --family z --n 2 --rho0 1 --lambda2 1/2 --dt 1e-4 --t-end 0.02 --out {out}",
     "e00bc0719afe0b65", "e3b0c44298fc1c14", "20829d89bdfbd02a", 0),
    ("flow --family z --n 2 --rho0 1 --lambda2 1/2 --dt 1e-4 --t-end 0.02 --format json --out {out}",
     "2e0c4c1fecde4005", "e3b0c44298fc1c14", "20829d89bdfbd02a", 0),
    ("flow --family z --n 3 --rho0 3/2 --lambda2 0.7 --dt 1e-4 --t-end -0.05 --out {out}",
     "4aa097f4c1297c93", "e3b0c44298fc1c14", "672f0b9c9356b5b7", 0),
    ("flow --family z --n 3 --rho0 3/2 --lambda2 0.7 --dt 1e-4 --t-end -0.05 --format json",
     "-", "47d6d406a71b9e37", "672f0b9c9356b5b7", 0),
    ("flow --family z --n 2 --rho0 1 --lambda2 1/8 --dt 1e-5 --t-end 0.07 --out {out}",
     "-", "e3b0c44298fc1c14", "6733f4322439b17f", 2),
    ("flow --family z --n 2 --rho0 1 --lambda2 1/2 --dt 1e-5 --t-end 0.07 --out {out}",
     "86384cb519e331b9", "e3b0c44298fc1c14", "ba01a64de9bf3bfa", 0),
    ("flow --family z --n 4 --rho0 2 --lambda2 3/5 --dt 1e-4 --out {out}",
     "4df6e2b946965b21", "e3b0c44298fc1c14", "fb217d380b39ecc5", 0),
    ("flow --family canonical --n 2 --rho0 1 --lambda2 1.7 --dt 1e-5 --t-end 0.003 --out {out}",
     "43adfac0795a0f93", "e3b0c44298fc1c14", "abb75506f95326bc", 0),
    ("flow --family canonical --n 2 --rho0 1 --lambda2 1.7 --dt 1e-5 --t-end 0.003 --format json --out {out}",
     "9fc8c4ff4a863269", "e3b0c44298fc1c14", "abb75506f95326bc", 0),
    ("flow --family canonical --n 3 --rho0 5/2 --lambda2 3/5 --dt 1e-4 --t-end -0.03",
     "-", "a95db78c17499a1e", "bfac180e385112fb", 0),
    ("flow --family canonical --n 3 --rho0 5/2 --lambda2 3/5 --dt 1e-4 --t-end -0.03 --format json --out {out}",
     "117db2117887aee2", "e3b0c44298fc1c14", "bfac180e385112fb", 0),
    ("entropy --n 2 --rho0 1 --lambda2 1/2 --samples 500 --out {out}",
     "464eddb900d3043f", "e3b0c44298fc1c14", "450bc71611e30d8c", 0),
    ("entropy --n 3 --rho0 5/2 --lambda2 1.3 --samples 300 --format json",
     "-", "b5d16bfd6bc97ce3", "574b4efa726c8c12", 0),
    ("entropy --n 2 --rho0 3 --lambda2 13/10 --samples 30000 --format json --out {out}",
     "f3b4a0c573b46cbe", "e3b0c44298fc1c14", "3f6432bcfcc6a81b", 0),
    ("flow --family canonical --n 2 --rho0 1 --lambda2 1/2 --dt 1.22e-06 --t-end 0.05 --out {out}",
     "-", "e3b0c44298fc1c14", "87fe589bf345c6a1", 2),
    ("flow --family canonical --n 2 --lambda2 1 --t-end 0.01 --out {out}",
     "-", "e3b0c44298fc1c14", "33dc5b75d5410fa7", 2),
    ("flow --family canonical --n 2 --lambda2 7/2 --dt 1e-4 --t-end -1 --out {out}",
     "-", "e3b0c44298fc1c14", "00a2d3886c849c6b", 2),
]


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("argv, file_sha, stdout_sha, stderr_sha, code", EXPORT_GOLDEN)
def test_export_bytes_are_pinned(argv, file_sha, stdout_sha, stderr_sha, code, tmp_path):
    from contextlib import redirect_stderr, redirect_stdout
    out = tmp_path / "export"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        got_code = main(argv.format(out=out).split())
    got_file = _sha16(out.read_bytes()) if out.exists() else "-"
    assert (got_file, _sha16(stdout.getvalue().encode()), _sha16(stderr.getvalue().encode()),
            got_code) == (file_sha, stdout_sha, stderr_sha, code)


# the first 16 hex digits of the SHA-256 of the stdout of symbolic commands
STDOUT_GOLDEN = [
    ("verify --n 2 --format json", "b4f9a8c599e4d3a7"),
    ("curvature --n 3 --format json", "d41e8e6cede0e07d"),
    ("ricci --family z --n 3 --lambda2 3/7 --format json", "8c043795e21c78b2"),
    ("ricci --family z --n 4 --lambda2 3/7 --format json", "127deb7c9b508378"),
]


@pytest.mark.parametrize("argv, stdout_sha", STDOUT_GOLDEN)
def test_symbolic_stdout_is_pinned(argv, stdout_sha):
    code, out = run_cli(argv.split())
    assert (code, _sha16(out.encode())) == (0, stdout_sha)


def test_flow_command_files(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["flow", "--family", "z", "--n", "2", "--rho0", "1", "--lambda2", "0.5",
            "--t-end", "auto"]
    code, _ = run_cli(args + ["--out", str(out1)])
    assert code == 0
    code, _ = run_cli(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()  # deterministic
    header = out1.read_text().splitlines()[0]
    assert header == "t,rho,mu,rho_mu,invariant"


def test_negative_t_end_in_exponent_notation(tmp_path):
    # argparse takes -3e-2 for an option unless it is joined to --t-end
    base = "flow --family z --n 2 --lambda2 1/2 --dt 1e-3 --out".split()
    joined = tmp_path / "joined"
    assert run_cli(base + [str(joined), "--t-end=-3e-2"])[0] == 0
    assert len(joined.read_text().splitlines()) == 32
    for option in ("--t-end", "--t-e"):
        spaced = tmp_path / option
        assert run_cli(base + [str(spaced), option, "-3e-2"])[0] == 0
        assert spaced.read_bytes() == joined.read_bytes()


# dt above about 2 % of the singular time T: 0.99 T rounded to whole steps
# would land the last step on or past T
@pytest.mark.parametrize("lambda2, dt, samples", [("1/5", "1e-3", 25), ("1/5", "5e-3", 5),
                                                  ("1/2", "0.02", 2)])
def test_flow_auto_ends_before_the_singular_time(lambda2, dt, samples, capsys):
    code, out = run_cli(["flow", "--family", "z", "--n", "2", "--lambda2", lambda2,
                         "--dt", dt])
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    ts = [float(row.split(",")[0]) for row in out.splitlines()[1:]]
    assert code == 0 and summary["samples"] == len(ts) == samples
    assert ts[-1] < summary["time"]


def test_entropy_command(tmp_path):
    out = tmp_path / "e.csv"
    code, _ = run_cli(["entropy", "--n", "2", "--rho0", "1", "--lambda2", "1/2",
                       "--samples", "50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 51
    w_col = lines[0].split(",").index("w")
    ws = [float(line.split(",")[w_col]) for line in lines[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(ws, ws[1:]))


def test_small_decimal_lambda2_is_read_exactly():
    # 1e-13 is 1/10^13, not a rational rounded to denominator 10^12 (which is 0)
    code, out = run_cli(["ricci", "--family", "z", "--n", "2", "--lambda2", "1e-13",
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["fiber"], payload["base"], payload["lambda2"]) == (4e13, 16.0, 1e-13)


def test_decimal_input_warns_only_where_it_changes_the_output(capsys):
    # ricci computes at the rational 7/10 that 0.7 spells and prints floats
    assert run_cli(["ricci", "--family", "z", "--n", "2", "--lambda2", "0.7"])[0] == 0
    assert capsys.readouterr().err == ("warning: decimal input '0.7' is read as the exact "
                                       "rational 7/10; the Ricci values are printed as floats\n")
    # flow and entropy run on floats: 0.7 and 7/10 give the same bytes, and no warning
    for argv in (["flow", "--family", "z", "--n", "2", "--dt", "1e-3", "--t-end", "0.01"],
                 ["entropy", "--n", "2", "--samples", "20"]):
        runs = []
        for lambda2 in ("0.7", "7/10"):
            code, out = run_cli(argv + ["--lambda2", lambda2])
            runs.append((code, out, capsys.readouterr().err))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2].startswith('{"samples": ')


def test_domain_errors_exit_2(capsys):
    code, _ = run_cli(["entropy", "--n", "2", "--rho0", "1", "--lambda2", "1/8",
                       "--samples", "10"])
    assert code == 2
    # a volume rho^(2n+1) lambda^2 that overflows to inf names the start value
    code, _ = run_cli(["entropy", "--n", "2", "--lambda2", "1e305", "--samples", "3"])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        "rho0 = 1.0, lambda^2 = 1e+305 takes the entropy diagnostics out of float range\n")
    code, _ = run_cli(["ricci", "--family", "z", "--n", "1", "--lambda2", "1/2"])
    assert code == 2
    code, _ = run_cli(["verify", "--n", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "entropy --n 2 --lambda2 1/2 --samples 1 --out {out}",
    "entropy --n 2 --lambda2 1/8 --out {out}",
    "entropy --n 2 --lambda2 1/2 --samples 1000001 --out {out}",
    "entropy --n 2 --lambda2 1/2 --rho0 1e100 --out {out}",
    "flow --family z --n 2 --lambda2 1/2 --dt 1e-300 --out {out}",
    "flow --family z --n 2 --lambda2 1/2 --rho0 1" + "0" * 400 + " --out {out}",
    # a dt of inf would make the export its initial row alone
    "flow --family z --n 2 --lambda2 1/2 --dt inf --out {out}",
    "flow --family z --n 2 --lambda2 1/2 --dt inf --t-end 0.01 --out {out}",
    # a t_end that is not finite has no step count
    "flow --family z --n 2 --lambda2 1/2 --t-end=nan --out {out}",
    "flow --family z --n 2 --lambda2 1/2 --t-end=inf --out {out}",
    "flow --family z --n 2 --lambda2 1/2 --t-end=-inf --out {out}",
])
def test_rejected_export_writes_no_file(argv, tmp_path):
    out = tmp_path / "x"
    code, stdout = run_cli(argv.format(out=out).split())
    assert (code, stdout, out.exists()) == (2, "", False)


def _w_across_chunks(k: int, w: float) -> list:
    """w rising by 1e-6 per record over the first two chunks of an export,
    but w at record k."""
    from twistorflow.flow import BLOCK_ROWS
    ws = [j * 1e-6 for j in range(BLOCK_ROWS + 2)]
    ws[k] = w
    return ws


def test_entropy_summary_compares_each_w_with_the_one_before(monkeypatch, capsys):
    from twistorflow import flow
    # on two CPUs, a second process formats the records from BLOCK_ROWS on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    B = flow.BLOCK_ROWS
    for ws, verdict in (([0.0, 1.0, 1.0 - 1e-13, 2.0], True), ([0.0, 1.0, 0.5, 2.0], False),
                        ([math.nan, 1.0], False), ([0.0, math.nan], False),
                        # record BLOCK_ROWS starts the second chunk
                        (_w_across_chunks(B, (B - 1) * 1e-6 - 1e-13), True),
                        (_w_across_chunks(B, (B - 2) * 1e-6), False),
                        (_w_across_chunks(B, math.nan), False),
                        (_w_across_chunks(B - 1, math.nan), False)):
        recs = [flow.EntropyRecord(t=-1.0 + 0.1 * k, rho=1.0, mu=1.0, rho_mu=1.0, invariant=0.0,
                                   tau=1.0 - 0.1 * k, scal=1.0, vol_ratio=1.0, u=1.0, f=0.0, w=w)
                for k, w in enumerate(ws)]
        monkeypatch.setattr(flow, "entropy_records", lambda init, samples, recs=recs: recs)
        code, _ = run_cli(["entropy", "--n", "2", "--lambda2", "1/2", "--samples", str(len(ws))])
        assert code == 0
        assert json.loads(capsys.readouterr().err) == {"samples": len(ws),
                                                       "w_nondecreasing": verdict}
    # each of the four two-chunk exports forked one child
    assert len(forks) == 4


@pytest.mark.parametrize("argv", [
    "ricci --family z --n 2 --lambda2 1/0",
    "ricci --family z --n 2 --lambda2 inf",
    "ricci --family canonical --n 2 --lambda2 1e400",
    "flow --family z --n 2 --lambda2 1/2 --rho0 1e400",
    "flow --family z --n 2 --lambda2 1/2 --out {missing}",
    "entropy --n 2 --lambda2 1/2 --out {missing}",
    "flow --family z --n 2 --lambda2 1/2 --dt 1e-300",
    "verify --n 2 --tamper 1,2",
    "verify --n 2 --tamper 1,2,3,4",
    "verify --n 2 --tamper 0,1,21",
    "verify --n 2 --tamper 0,0,5",
    "verify --n 2 --tamper 3,3,0",
    "ricci --family z --n 7 --lambda2 1/2",
    "ricci --family canonical --n 2 --lambda2 1e308",
    "ricci --family z --n 2 --lambda2 1e-320",
    "ricci --family z --n 2 --lambda2 1e-999999999",
    "curvature --n 7",
    "verify --n 7",
    "entropy --n 2 --rho0 1 --lambda2 1/2 --samples 10000001",
    "entropy --n 2 --rho0 1e100 --lambda2 1/2",
    "entropy --n 2 --rho0 1e-300 --lambda2 1/2",
    "verify --n 2 --tamper=",
    # exact values too large for a float
    "flow --family z --n 2 --lambda2 1/2 --rho0 1" + "0" * 400,
    f"entropy --n 2 --lambda2 {10 ** 400}/3",
])
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    missing = tmp_path / "no-such-dir" / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "twistorflow.cli"]
                          + argv.format(missing=missing).split(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_benchmark_trace_mode_runs():
    # perfbench/child.py imports every traced module by name and must report
    # each per-layer metric of BENCHMARK.json; run.py adds trace.op_s itself
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "child.py"), str(t0),
                           "trace", "ricci", "--family", "z", "--n", "2", "--lambda2", "1/3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["rc"] == 0 and "op_s" in rec
    assert [m for m in names if m not in rec["layers"] and m != "trace.op_s"] == []


def test_benchmark_trace_mode_runs_verify():
    # the verify-n2 command, traced: only this trace times each check alone,
    # which clears canonical._sp_structure and runs run_checks(n, checks=[name])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]
                 if m["name"].startswith("verify.check.")]
    assert names
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "child.py"), str(t0),
                           "trace", "verify", "--n", "2", "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["rc"] == 0
    assert [m for m in names if m not in rec["layers"]] == []


def test_benchmark_trace_mode_counts_flow_samples(tmp_path):
    # the tracer counts a trajectory's samples through len(traj.samples)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "child.py"), str(t0),
                           "trace", "flow", "--family", "z", "--n", "2", "--lambda2", "1/2",
                           "--dt", "1e-4", "--t-end", "0.01", "--out", str(tmp_path / "z.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["rc"] == 0 and rec["layers"]["flow.samples"] == 101


def test_verify_fast_subset_and_tamper():
    # run two cheap checks through the public runner to pin the report schema
    from twistorflow.verify import run_checks
    rep = run_checks(2, checks=["lie_algebra", "maurer_cartan_blocks"])
    stats = {r["check"]: r["status"] for r in rep if not r["check"].startswith("divergence")}
    assert stats == {"lie_algebra": "pass", "maurer_cartan_blocks": "pass"}
    for r in rep:
        assert set(r) == {"check", "status", "detail"}
        assert r["status"] in ("pass", "fail", "note")
    assert any(r["check"].startswith("divergence:") for r in rep)
    rep = run_checks(2, tamper=(0, 1, 2), checks=["maurer_cartan_blocks"])
    assert rep[0]["status"] == "fail"


def test_tamper_with_an_x_target_exits_1():
    code, out = run_cli("verify --n 2 --tamper 12,6,3".split())
    assert code == 1
    assert "[fail] maurer_cartan_blocks" in out


def test_verify_report_is_order_stable():
    from twistorflow.verify import run_checks
    names = ["maurer_cartan_blocks", "lie_algebra"]
    rep1 = run_checks(2, checks=names)
    rep2 = run_checks(2, checks=list(reversed(names)))
    assert [r["check"] for r in rep1] == [r["check"] for r in rep2]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "twistorflow.cli", "einstein",
                           "--family", "z", "--n", "4", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda2_roots"] == "{1/6}"


def test_full_verify_exit_zero():
    code, out = run_cli(["verify", "--n", "2", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    names = {r["check"] for r in rep if not r["check"].startswith("divergence")}
    from twistorflow.verify import CHECK_NAMES
    assert names == set(CHECK_NAMES)
    assert all(r["status"] == "pass" for r in rep
               if not r["check"].startswith("divergence"))


def test_flow_canonical_summary_monotone(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _ = run_cli(["flow", "--family", "canonical", "--n", "2",
                       "--lambda2", "1.01", "--t-end", "0.002", "--dt", "1e-5",
                       "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["mu_monotone"] == "decreasing"
    assert summary["mu_end"] < 1.01


@pytest.mark.parametrize("argv", [
    "ricci --family z --n 2 --lambda2 1/4 --format json",
    "verify --n 2 --format json",
])
def test_optimized_interpreter_gives_the_same_output(argv):
    # python -O strips assert statements; no reported value may rest on one
    runs = [subprocess.run([sys.executable, *flags, "-m", "twistorflow.cli"] + argv.split(),
                           capture_output=True, text=True, timeout=120)
            for flags in ([], ["-O"])]
    assert runs[0].returncode == 0
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


_STARTUP_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from twistorflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in sys.argv[1:]]
added = set(sys.modules) - before
foreign = sorted(m for m in added if m.partition(".")[0] not in sys.stdlib_module_names
                 and m.partition(".")[0] != "twistorflow")
print(json.dumps({"codes": codes, "foreign": foreign}))
"""


def test_startup_path_loads_only_the_standard_library():
    # every tflow call is a fresh interpreter: no third-party import on its path
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE,
                           "ricci --family z --n 2 --lambda2 1/2", "verify --n 2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "foreign": []}


_QUERY_PROBE = """
import contextlib, io, json, sys
from twistorflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1].split())
print(json.dumps([code, sorted(m for m in ("twistorflow.verify", "twistorflow.flow")
                               if m in sys.modules)]))
"""


@pytest.mark.parametrize("argv", ["ricci --family z --n 2 --lambda2 1/2",
                                  "einstein --family canonical --n 3",
                                  "curvature --n 2 --sectional"])
def test_queries_load_neither_verify_nor_flow(argv):
    proc = subprocess.run([sys.executable, "-c", _QUERY_PROBE, argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_family_names_match_flow():
    from twistorflow import cli, flow
    assert (cli.CANONICAL, cli.Z) == (flow.CANONICAL, flow.Z)


# accepted and rejected values of a rational option
_GOOD = ("1/2", "2/7", "3", "1", "0.3", "1/4")
_BAD = ("0", "-1", "-2/3", "1/0", "inf", "nan", "-inf", "1e400", "junk", "", "1/x")


@st.composite
def _command_line(draw):
    """An einstein, ricci, curvature, flow or entropy command line: all valid
    values, or a mix of valid and malformed ones.  A valid run stays cheap:
    n <= 3, at most 1000 flow steps and 200 entropy samples, no --out.  A
    400-digit n is valid for einstein, and rejected by flow and entropy."""
    mixed = draw(st.booleans())

    def pick(good, bad=()):
        return draw(st.sampled_from(good + bad if mixed else good))

    def pick_n(good, bad):
        # one einstein, flow or entropy line in four has the 400-digit n
        if draw(st.integers(0, 3)) == 0:
            return str(draw(st.integers(10 ** 399, 10 ** 400 - 1)))
        return pick(good, bad)

    cmd = draw(st.sampled_from(["einstein", "ricci", "curvature", "flow", "entropy"]))
    family = f"--family={pick(('canonical', 'z'), ('junk',))}"
    fmt = f"--format={pick(('json', 'csv', 'table'), ('xml',))}"
    if cmd == "einstein":
        return [cmd, family, f"--n={pick_n(('2', '3', '1000'), ('-1', '0', '1', 'x'))}", fmt]
    if cmd == "ricci":
        n = draw(st.integers(1, 8) if mixed else st.integers(2, 3))
        # a valid value at n in 4..6 would run at full cost
        lam = draw(st.sampled_from(_BAD)) if 4 <= n <= 6 else pick(_GOOD, _BAD)
        return [cmd, family, f"--n={n}", f"--lambda2={lam}", fmt]
    if cmd == "curvature":
        n = pick(("2", "3"), ("-1", "0", "1", "7", "8", "x"))
        return [cmd, f"--n={n}", fmt] + (["--sectional"] if draw(st.booleans()) else [])
    n = f"--n={pick_n(('2', '3'), ('0', '1', 'x'))}"
    lam, rho0 = (f"--{opt}={pick(_GOOD, _BAD)}" for opt in ("lambda2", "rho0"))
    fmt = f"--format={pick(('csv', 'json'), ('xml',))}"
    if cmd == "flow":
        # |t_end| / dt <= 1000; an auto end, at rho0 <= 3, is under 100 steps
        dt = pick(("0.01", "0.001"), ("0", "-0.01", "nan", "inf", "1e-300", "x"))
        t_end = pick(("0.5", "-1", "0", "auto"), ("nan", "inf", "x"))
        return [cmd, family, n, lam, rho0, f"--dt={dt}", f"--t-end={t_end}", fmt]
    samples = pick(("2", "50", "200"), ("-5", "0", "1", "x"))
    return [cmd, n, lam, rho0, f"--samples={samples}", fmt]


def _exit_code(argv):
    """cli.main's exit code, or argparse's when it rejects the command line,
    with the stdout and stderr texts."""
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


_BIG_N = f"--n={10 ** 400}"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=_command_line())
# the n = 2**60 + 1 that a float prints as 1.152921504606847e+18
@example(argv=["einstein", "--family=canonical", "--n=1152921504606846977", "--format=table"])
@example(argv=["einstein", "--family=z", _BIG_N, "--format=table"])
@example(argv=["flow", "--family=z", _BIG_N, "--lambda2=1/2"])
@example(argv=["flow", "--family=canonical", _BIG_N, "--lambda2=1/2", "--t-end=0.01"])
@example(argv=["entropy", _BIG_N, "--lambda2=1/2"])
def test_every_command_line_exits_0_1_or_2(argv):
    # only verify exits 1
    code, out, err = _exit_code(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if argv[0] == "einstein" and code == 0 and argv[-1] == "--format=table":
        # n is printed exactly, however many digits it has
        assert out.splitlines()[1].split() == ["n", argv[2].removeprefix("--n=")]


@st.composite
def _verify_command_line(draw):
    """A verify command line with a valid or malformed --n and --tamper; a
    valid --n is 2 only, where a whole run takes well under a second."""
    n = "2" if draw(st.booleans()) else draw(st.sampled_from(["-1", "0", "1", "7", "junk"]))
    argv = ["verify", f"--n={n}"]
    tamper = draw(st.sampled_from([None, "", "1,2", "0,0,3", "a,b,c", "999,1,2", "0,1,2"]))
    if tamper is not None:
        argv.append(f"--tamper={tamper}")
    return argv + [f"--format={draw(st.sampled_from(['json', 'table']))}"]


@settings(max_examples=15, derandomize=True, deadline=None)
@given(argv=_verify_command_line())
def test_every_verify_command_line_exits_0_1_or_2(argv):
    code, _, err = _exit_code(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
