"""Each output checker accepts a correct output and rejects a corrupted one.

    python3 -m pytest -q perfbench/test_checks.py

The correct outputs are built here from the closed forms, not by the program.
"""

import copy
import json
import math
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


def verify_report():
    report = [{"check": name, "status": "pass", "detail": ""} for name in sorted(checks.CHECK_NAMES)]
    report += [{"check": f"divergence:{d}", "status": "note", "detail": ""}
               for d in sorted(checks.DIVERGENCE_IDS)]
    return report


def test_verify_checker():
    checks.check_verify(0, json.dumps(verify_report()))
    with pytest.raises(CheckFailed):
        checks.check_verify(1, json.dumps(verify_report()))
    bad = verify_report()
    bad[3]["status"] = "fail"
    with pytest.raises(CheckFailed):
        checks.check_verify(0, json.dumps(bad))
    with pytest.raises(CheckFailed):  # a check missing
        checks.check_verify(0, json.dumps(verify_report()[1:]))
    with pytest.raises(CheckFailed):  # a divergence note missing
        checks.check_verify(0, json.dumps(verify_report()[:-1]))


def ricci_payload(n, mu):
    return {"family": "z", "n": n, "lambda2": f"{mu.numerator}/{mu.denominator}",
            "fiber": str(4 / mu), "base": str(4 * n + 8),
            "einstein": mu == Fraction(1, n + 2), "off_diagonal_zero": True}


@pytest.mark.parametrize("key,value", [("fiber", "7"), ("base", "21"),
                                       ("off_diagonal_zero", False), ("einstein", True)])
def test_ricci_checker(key, value):
    mu = Fraction(2, 3)
    checks.check_ricci_z(0, json.dumps(ricci_payload(3, mu)), 3, mu)
    bad = ricci_payload(3, mu)
    bad[key] = value
    with pytest.raises(CheckFailed):
        checks.check_ricci_z(0, json.dumps(bad), 3, mu)


def test_ricci_checker_einstein_point():
    mu = Fraction(1, 5)
    checks.check_ricci_z(0, json.dumps(ricci_payload(3, mu)), 3, mu)
    bad = ricci_payload(3, mu)
    bad["einstein"] = False
    with pytest.raises(CheckFailed):
        checks.check_ricci_z(0, json.dumps(bad), 3, mu)


def z_rows(n, rho0, mu0, steps, dt):
    rows = []
    for k in range(steps + 1):
        t = k * dt
        rho, rho_mu = rho0 - 8 * (n + 2) * t, rho0 * mu0 - 8 * t
        rows.append({"t": t, "rho": rho, "mu": rho_mu / rho, "rho_mu": rho_mu, "invariant": 0.0})
    rows[0]["mu"] = mu0  # the export starts from the initial state as given
    return rows


@pytest.mark.parametrize("field", ["rho", "rho_mu", "mu"])
def test_z_flow_checker(field):
    rows = z_rows(2, 1.5, 0.7, 100, 1e-4)
    checks.check_z_flow(rows, 2, 1.5, 0.7, 101)
    bad = copy.deepcopy(rows)
    bad[60][field] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_z_flow(bad, 2, 1.5, 0.7, 101)
    with pytest.raises(CheckFailed):  # a truncated export
        checks.check_z_flow(rows[:-1], 2, 1.5, 0.7, 101)


def canonical_rows(n, rho0, mu0, mu1, count):
    """Points on the invariant curve through (rho0, mu0), mu running to mu1."""
    inv = checks.canonical_invariant(rho0, mu0, n)
    rows = []
    for k in range(count):
        mu = mu0 + (mu1 - mu0) * k / (count - 1)
        log_rho = (inv + (n + 1) / n * math.log(abs(mu - 1))
                   - (n * n + 3 * n + 1) / (n * (n + 1)) * math.log(abs((n + 1) * mu - 1)))
        rho = math.exp(log_rho)
        rows.append({"t": -k * 1e-4, "rho": rho, "mu": mu, "rho_mu": rho * mu, "invariant": inv})
    return rows


def test_canonical_checker():
    rows = canonical_rows(3, 2.0, 0.6, 0.5, 50)
    checks.check_canonical_flow(rows, 3, 2.0, 0.6, 50)
    checks.check_canonical_flow(rows, 3, 2.0, 0.6, None)
    bad = copy.deepcopy(rows)
    bad[20]["rho"] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_canonical_flow(bad, 3, 2.0, 0.6, 50)
    bad = copy.deepcopy(rows)
    bad[20]["mu"], bad[21]["mu"] = bad[21]["mu"], bad[20]["mu"]
    bad[20]["rho"], bad[21]["rho"] = bad[21]["rho"], bad[20]["rho"]
    with pytest.raises(CheckFailed):  # still on the curve, but mu turns back
        checks.check_canonical_flow(bad, 3, 2.0, 0.6, 50)


def entropy_rows(n, rho0, samples):
    T = rho0 / (8 * (n + 2))
    rows = []
    for k in range(samples):
        tau = 10 * T + (T / 100 - 10 * T) * k / (samples - 1)
        rows.append({f: 0.0 for f in checks.ENTROPY_FIELDS} | {"t": -tau, "tau": tau, "w": k * 1e-3})
    return rows


def test_entropy_checker():
    rows = entropy_rows(2, 1.0, 200)
    checks.check_entropy(rows, 2, 1.0, 200)
    bad = copy.deepcopy(rows)
    bad[120]["w"] -= 0.01
    with pytest.raises(CheckFailed):
        checks.check_entropy(bad, 2, 1.0, 200)
    with pytest.raises(CheckFailed):  # fewer samples than asked for
        checks.check_entropy(rows[:-1], 2, 1.0, 200)
    with pytest.raises(CheckFailed):  # the span of another rho0
        checks.check_entropy(rows, 2, 1.1, 200)
    bad = copy.deepcopy(rows)
    bad[50]["t"] += 1e-4
    with pytest.raises(CheckFailed):  # uneven spacing
        checks.check_entropy(bad, 2, 1.0, 200)


def test_parse_rows():
    text = "t,rho,mu,rho_mu,invariant\n0,1,0.5,0.5,0.1\n"
    assert checks.parse_rows(text, "csv", checks.TRAJ_FIELDS)[0]["mu"] == 0.5
    js = json.dumps([{"t": 0.0, "rho": 1.0, "mu": 0.5, "rho_mu": 0.5, "invariant": 0.1}])
    assert checks.parse_rows(js, "json", checks.TRAJ_FIELDS)[0]["rho"] == 1.0
    with pytest.raises(CheckFailed):
        checks.parse_rows(text.replace("rho_mu", "rhomu"), "csv", checks.TRAJ_FIELDS)
