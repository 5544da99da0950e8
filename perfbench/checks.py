"""Output checks, computed apart from the program.

Nothing here imports `twistorflow`: the expected values come from the paper's
closed forms and from formulas derived again below, so a fault in the
program cannot also be a fault in its check.  Each checker raises
CheckFailed with the first discrepancy it finds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

REL_TOL = 1e-8

CHECK_NAMES = {
    "lie_algebra", "maurer_cartan_blocks", "hpn_curvature", "prop_2_4_canonical_ricci",
    "kahler_criterion", "contact_identity", "hat_alpha_derivatives", "prop_3_1_z_ricci",
    "rhs_vs_ricci", "closed_form_vs_rk4", "invariant_conservation", "entropy_monotonicity",
}
DIVERGENCE_IDS = {
    "flow-reduction-factor-2", "curvature-component-exponent", "dual-frame-alpha2",
    "volume-normalization-u", "alpha2-correction-lambda-factor", "curvature-alpha-quadratic",
    "hat-derivation-gamma-terms", "jet-table-invisible-terms",
}
TRAJ_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant"]
ENTROPY_FIELDS = TRAJ_FIELDS + ["tau", "scal", "vol_ratio", "u", "f", "w"]


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    _require(abs(got - want) <= rel * abs(want), f"{what}: {got!r} vs {want!r}")


def parse_rows(text: str, fmt: str, fields: list[str]) -> list[dict[str, float]]:
    """Rows of a flow or entropy export, in CSV or JSON."""
    if fmt == "json":
        rows = json.loads(text)
    else:
        reader = csv.DictReader(io.StringIO(text))
        _require(reader.fieldnames == fields, f"CSV header {reader.fieldnames}")
        rows = list(reader)
    out = []
    for row in rows:
        _require(list(row) == fields, f"fields {list(row)}")
        out.append({k: float(v) for k, v in row.items()})
    return out


def check_verify(rc: int, stdout: str) -> None:
    """`verify --format json`: every check present and passing, every note echoed."""
    _require(rc == 0, f"exit code {rc}")
    report = json.loads(stdout)
    checks = [r for r in report if not r["check"].startswith("divergence:")]
    notes = [r for r in report if r["check"].startswith("divergence:")]
    _require(len(checks) == len(CHECK_NAMES)
             and {r["check"] for r in checks} == CHECK_NAMES,
             f"check names {[r['check'] for r in checks]}")
    failed = [r["check"] for r in checks if r["status"] != "pass"]
    _require(not failed, f"failed checks {failed}")
    ids = [r["check"][len("divergence:"):] for r in notes]
    _require(len(ids) == len(DIVERGENCE_IDS) and set(ids) == DIVERGENCE_IDS,
             f"divergence notes {ids}")
    _require(all(r["status"] == "note" for r in notes), "divergence status")


def check_ricci_z(rc: int, stdout: str, n: int, mu: Fraction) -> None:
    """Prop. 3.1: Ric(g^Z) = (4/lambda^2, 4n+8), off-diagonals zero, Einstein
    exactly at lambda^2 = 1/(n+2)."""
    _require(rc == 0, f"exit code {rc}")
    got = json.loads(stdout)
    _require(got["family"] == "z" and got["n"] == n, f"echo {got}")
    _require(Fraction(got["lambda2"]) == mu, f"lambda2 {got['lambda2']}")
    _require(Fraction(got["fiber"]) == 4 / mu, f"fiber {got['fiber']} != {4 / mu}")
    _require(Fraction(got["base"]) == 4 * n + 8, f"base {got['base']} != {4 * n + 8}")
    _require(got["off_diagonal_zero"] is True, "off-diagonal Ricci not zero")
    _require(got["einstein"] is (mu == Fraction(1, n + 2)), f"einstein {got['einstein']}")


def _check_start(rows, rho0: float, mu0: float, samples: int | None) -> None:
    """The export starts at the initial state and, when samples is given,
    holds exactly that many rows."""
    _require(samples is None or len(rows) == samples, f"{len(rows)} samples, want {samples}")
    first = rows[0]
    _require(first["t"] == 0.0 and first["rho"] == rho0 and first["mu"] == mu0,
             f"initial sample {first}")


def check_z_flow(rows, n: int, rho0: float, mu0: float, samples: int) -> None:
    """Z family: rho = rho0 - 8(n+2)t and rho mu = rho0 mu0 - 8t exactly."""
    _check_start(rows, rho0, mu0, samples)
    for r in rows:
        rho = rho0 - 8 * (n + 2) * r["t"]
        rho_mu = rho0 * mu0 - 8 * r["t"]
        _close(r["rho"], rho, f"rho at t={r['t']}")
        _close(r["rho_mu"], rho_mu, f"rho mu at t={r['t']}")
        _close(r["mu"], rho_mu / rho, f"mu at t={r['t']}")


def canonical_invariant(rho: float, mu: float, n: int) -> float:
    """First integral of the canonical flow d(rho mu)/dt = -8(1 + n mu^2),
    d rho/dt = -8(n + 2 - mu).  Eliminating t gives
    rho dmu/dt = -8((n+1)mu - 1)(mu - 1), so
    d log rho / d mu = (n + 2 - mu) / (((n+1)mu - 1)(mu - 1))
                     = ((n+1)/n) / (mu - 1) - ((n^2+3n+1)/n) / ((n+1)mu - 1),
    whose integral is conserved along the flow."""
    return (math.log(rho) - (n + 1) / n * math.log(abs(mu - 1))
            + (n * n + 3 * n + 1) / (n * (n + 1)) * math.log(abs((n + 1) * mu - 1)))


def check_canonical_flow(rows, n: int, rho0: float, mu0: float, samples: int | None) -> None:
    """Canonical family: the log invariant is conserved and mu is monotone."""
    _check_start(rows, rho0, mu0, samples)
    ref = canonical_invariant(rho0, mu0, n)
    for r in rows:
        inv = canonical_invariant(r["rho"], r["mu"], n)
        _require(abs(inv - ref) <= REL_TOL, f"log invariant drifts to {inv - ref:.3e} "
                                            f"at t={r['t']}")
    mus = [r["mu"] for r in rows]
    steps = [b - a for a, b in zip(mus, mus[1:])]
    _require(all(s >= 0 for s in steps) or all(s <= 0 for s in steps), "mu not monotone")


def check_entropy(rows, n: int, rho0: float, samples: int) -> None:
    """Entropy export: `samples` rows equally spaced in t over the span
    tau in [T/100, 10 T], T = rho0 / (8(n+2)), with W nondecreasing."""
    _require(len(rows) == samples, f"{len(rows)} samples, want {samples}")
    T = rho0 / (8 * (n + 2))
    _close(rows[0]["t"], -10 * T, "first t", 1e-12)
    _close(rows[-1]["t"], -T / 100, "last t", 1e-12)
    step = (rows[-1]["t"] - rows[0]["t"]) / (samples - 1)
    for k, r in enumerate(rows):
        _require(abs(r["t"] - (rows[0]["t"] + k * step)) <= 1e-9 * T, f"t spacing at row {k}")
    ws = [r["w"] for r in rows]
    for k in range(1, len(ws)):
        _require(ws[k] >= ws[k - 1] - 1e-12 * max(1.0, abs(ws[k - 1])),
                 f"W decreases at row {k}: {ws[k - 1]!r} -> {ws[k]!r}")
