import csv
import json
import subprocess
import sys

import pytest

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


def test_domain_errors_exit_2():
    code, _ = run_cli(["entropy", "--n", "2", "--rho0", "1", "--lambda2", "1/8",
                       "--samples", "10"])
    assert code == 2
    code, _ = run_cli(["ricci", "--family", "z", "--n", "1", "--lambda2", "1/2"])
    assert code == 2
    code, _ = run_cli(["verify", "--n", "1"])
    assert code == 2


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
    "entropy --n 2 --rho0 1 --lambda2 1/2 --samples 10000001",
])
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    missing = tmp_path / "no-such-dir" / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "twistorflow.cli"]
                          + argv.format(missing=missing).split(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


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


def test_verify_report_is_order_stable():
    from twistorflow.verify import run_checks
    names = ["maurer_cartan_blocks", "lie_algebra"]
    rep1 = run_checks(2, checks=names)
    rep2 = run_checks(2, checks=list(reversed(names)))
    assert [r["check"] for r in rep1] == [r["check"] for r in rep2]


def test_thread_cap_env(monkeypatch):
    from twistorflow.verify import run_checks
    monkeypatch.setenv("TFLOW_THREADS", "1")
    rep = run_checks(2, checks=["lie_algebra"])
    assert rep[0]["status"] == "pass"


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
