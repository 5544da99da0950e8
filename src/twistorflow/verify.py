"""The verification suite: every identity the engine can recompute, with a
machine-readable report and the documented list of display divergences."""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import Coeff
from .canonical import (MetricParams, contact_check, einstein_solve_canonical,
                        kahler_criterion, ricci_canonical, ricci_map_canonical)
from .flow import (FlowState, Z, CANONICAL, _ordered_map, classify, closed_form_z,
                   entropy_records, integrate, rhs)
from .liealg import (_sp_structure, build_sp_basis, build_sp_sp1_basis, exact_rank,
                     hpn_curvature, right_action_matrices, sectional,
                     verify_block_equations)
from .zmetric import (einstein_solve_z, hat_alpha_derivatives, integrability_witness,
                      ricci_map_z, ricci_z)

__all__ = ["KNOWN_DIVERGENCES", "run_checks", "CHECK_NAMES"]

# Display divergences: places where the engine's computed value is the
# arbiter and the printed formula differs.  Shipped as data and echoed in
# every verification report.
KNOWN_DIVERGENCES = [
    {
        "id": "flow-reduction-factor-2",
        "detail": "The displayed single-equation reduction of the canonical flow "
                  "carries -4{(n+1)mu-1}(mu-1); the system it is eliminated from "
                  "gives rho dmu/dt = -8((n+1)mu-1)(mu-1).  The system is ground "
                  "truth; the sign/fixed-point structure is unaffected.",
    },
    {
        "id": "curvature-component-exponent",
        "detail": "One listed curvature component of the canonical family prints "
                  "(2 lambda - lambda^2) where its siblings and the engine give "
                  "(2 lambda - lambda^3).",
    },
    {
        "id": "dual-frame-alpha2",
        "detail": "The dual-frame list reads 'alpha_1, alpha_2, X^0..X^3' but every "
                  "pairing uses the alpha_3 dual; alpha_2 there is a typo for alpha_3.",
    },
    {
        "id": "volume-normalization-u",
        "detail": "The displayed spatial constant u omits the lambda^2 factor present "
                  "in the volume display; u = 1/Vol is implemented exactly, with the "
                  "factor.",
    },
    {
        "id": "alpha2-correction-lambda-factor",
        "detail": "The displayed connection footnote scales the alpha_2 correction by "
                  "(lambda^2 - 1); the structure equation and the displayed curvature "
                  "computation both require the plain +-alpha_2 correction.",
    },
    {
        "id": "curvature-alpha-quadratic",
        "detail": "The listed mixed base components print a 4 lambda^2 "
                  "alpha_3^alpha_1 part; the alpha-corrected Gamma quadratics "
                  "also contribute -2(1-lambda^2)^2, making the computed part "
                  "(4 lambda^2 - 2 lambda^4) alpha_3^alpha_1.  The Ricci "
                  "contraction is unaffected.",
    },
    {
        "id": "hat-derivation-gamma-terms",
        "detail": "The displayed derivation formulas for the hatted fiber forms carry "
                  "Gamma_0/Gamma_2 couplings against X^0 and X^2; the full frame "
                  "derivation gives the same 2 alpha_2 ^ ahat structure with a "
                  "different jet-weighted Gamma-coupling list (reported term by "
                  "term), and neither correction list contributes to the Ricci.",
    },
    {
        "id": "jet-table-invisible-terms",
        "detail": "The jet differentiation table is stated modulo alpha_1/alpha_3; the "
                  "omitted invisible components are required for the Ricci values "
                  "(dropping them shifts the fiber block by -8 and the base by -2), "
                  "while first-order-free unknowns there change the metric germ itself.",
    },
]


def _check_lie(n: int) -> tuple[bool, str]:
    L = build_sp_basis(n)
    want = (n + 1) * (2 * n + 3)
    if L.dim() != want or exact_rank(L.basis) != want:
        return False, f"dim sp({n + 1}) != {want}"
    L1 = build_sp_sp1_basis(n)
    want1 = n * (2 * n + 1) + 3
    if L1.dim() != want1 or exact_rank(L1.basis) != want1:
        return False, f"dim sp({n})+sp(1) != {want1}"
    Ri, Rj = right_action_matrices(n)
    for M in L.basis:
        if (M + M.T).any() or (M @ Ri - Ri @ M).any() or (M @ Rj - Rj @ M).any():
            return False, "basis matrix fails so-membership or H-linearity"
    _sp_structure(n)  # raises on closure/Jacobi failure
    return True, f"dim {want} and {want1}; Jacobi exact"


def _check_blocks(n: int, tamper=None) -> tuple[bool, str]:
    rep = verify_block_equations(n, tamper=tamper)
    return rep["all_pass"], str(rep)


def _check_hpn(n: int) -> tuple[bool, str]:
    T = hpn_curvature(n)
    if not T.check_symmetries():
        return False, "Riemann symmetries fail"
    m = 4 * n
    secs = {sectional(T, A, B) for A in range(1, m + 1) for B in range(1, m + 1) if A != B}
    if secs != {Fraction(1), Fraction(4)}:
        return False, f"sectional set {secs}"
    ric = T.ricci_matrix()
    if any(ric[i][j] != (Fraction(4 * (n + 2)) if i == j else 0)
           for i in range(m) for j in range(m)):
        return False, "Ricci != 4(n+2) id"
    if T.scalar() != 16 * n * (n + 2):
        return False, f"scalar {T.scalar()}"
    return True, "pinched in {1,4}; Ric = 4(n+2) id; Scal = 16n(n+2); both routes agree"


def _check_prop24(n: int) -> tuple[bool, str]:
    rd = ricci_canonical(MetricParams(n))
    fib = Coeff({(-2, ()): 4, (2, ()): 4 * n})
    base = Coeff({(0, ()): 4 * n + 8, (2, ()): -4})
    ok = rd.fiber == fib and rd.base == base and rd.off_diagonal_zero
    roots = einstein_solve_canonical(n)
    ok = ok and roots == {Fraction(1), Fraction(1, n + 1)}
    for mu in roots:
        ok = ok and rd.fiber_at(mu) == rd.base_at(mu)
        mapped = ricci_map_canonical(MetricParams(n, lambda2=mu))
        ok = ok and mapped.lambda2 == mu
    return ok, "Ric^can = (4/L^2+4nL^2, 4n+8-4L^2); roots {1, 1/(n+1)} fixed"


def _check_kahler(n: int) -> tuple[bool, str]:
    grid = [Fraction(1), Fraction(1, n + 1), Fraction(1, n + 2), Fraction(2),
            Fraction(1, 2), Fraction(3, 7)]
    for mu in grid:
        want = mu == 1
        if kahler_criterion(MetricParams(n, lambda2=mu)) != want:
            return False, f"kahler criterion wrong at mu={mu}"
    if kahler_criterion(MetricParams(n, lambda2=Fraction(1), s_ratio=Fraction(2))):
        return False, "kahler should fail at s_ratio != 1"
    return True, "skew-Hermitian iff lambda^2 = 1 and S/S~ = 1"


def _check_contact(n: int) -> tuple[bool, str]:
    rep = contact_check(n, None)
    return rep["holds"] and rep["sp1_split_consistent"], str(rep)


def _check_hat(n: int) -> tuple[bool, str]:
    rep = hat_alpha_derivatives(n)
    return rep["holds"], ("d ahat_i = +-2 alpha_2 ^ ahat_j modulo jet-weighted "
                          "Gamma couplings; "
                          f"{len(rep['d_hat_alpha1_vs_displayed'])} term diffs vs "
                          "the displayed correction list")


def _check_prop31(n: int) -> tuple[bool, str]:
    rd = ricci_z(MetricParams(n))
    fib = Coeff({(-2, ()): 4})
    base = Coeff({(0, ()): 4 * n + 8})
    ok = rd.fiber == fib and rd.base == base and rd.off_diagonal_zero
    rd1 = ricci_z(MetricParams(n), ambiguity="grade1")
    ok = ok and rd1.fiber == fib and rd1.base == base and rd1.off_diagonal_zero
    root = einstein_solve_z(n)
    ok = ok and root == Fraction(1, n + 2)
    ok = ok and rd.fiber_at(root) == rd.base_at(root)
    mapped = ricci_map_z(MetricParams(n, lambda2=Fraction(7, 5)))
    ok = ok and mapped.lambda2 == root and mapped.rho == 4 * n + 8
    ok = ok and integrability_witness(n)
    return ok, ("Ric^Z = (4/L^2, 4n+8), unknown-free, off-diagonals zero; "
                "root 1/(n+2); X-distribution integrable")


def _check_rhs(n: int) -> tuple[bool, str]:
    rng = random.Random(20260808 + n)
    rdc = ricci_canonical(MetricParams(n))
    rdz = ricci_z(MetricParams(n))
    for _ in range(5):
        mu = Fraction(rng.randint(1, 40), rng.randint(20, 60))
        if mu < n + 2:
            got_v, got_r = rhs(FlowState(0.0, Fraction(1), mu, CANONICAL, n))
            if got_v != -2 * mu * rdc.fiber_at(mu) or got_r != -2 * rdc.base_at(mu):
                return False, f"canonical rhs mismatch at mu={mu}"
        got_v, got_r = rhs(FlowState(0.0, Fraction(1), mu, Z, n))
        if got_v != -2 * mu * rdz.fiber_at(mu) or got_r != -2 * rdz.base_at(mu):
            return False, f"z rhs mismatch at mu={mu}"
    return True, "rhs = -2 x Ricci block coefficients, exact at random rational mu"


def _check_flow_oracle(n: int) -> tuple[bool, str]:
    rng = random.Random(97 + n)
    worst = 0.0
    for _ in range(4):
        rho0 = 0.5 + 1.5 * rng.random()
        mu0 = 0.05 + 1.2 * rng.random()
        init = FlowState(0.0, rho0, mu0, Z, n)
        T = classify(init)["time"]
        traj = integrate(init, 1e-4, 0.9 * T)
        for s in traj.samples:
            cf = closed_form_z(rho0, mu0, n, s.t)
            worst = max(worst, abs(s.rho - cf.rho) / cf.rho, abs(s.mu - cf.mu) / cf.mu)
    ok = worst <= 1e-8
    return ok, f"max relative RK4-vs-closed-form error {worst:.3e}"


def _check_invariants(n: int) -> tuple[bool, str]:
    init = FlowState(0.0, 1.0, 0.5, Z, n)
    T = classify(init)["time"]
    traj = integrate(init, 1e-4, 0.9 * T)
    drift_z = traj.max_invariant_drift()
    initc = FlowState(0.0, 1.0, 1.3, CANONICAL, n)
    trc = integrate(initc, 1e-4, 0.005)
    drift_c = trc.max_invariant_drift()
    ok = drift_z <= 1e-9 and drift_c <= 1e-8
    return ok, f"Z drift {drift_z:.2e}; canonical log-invariant drift {drift_c:.2e}"


def _check_entropy(n: int) -> tuple[bool, str]:
    recs = list(entropy_records(FlowState(0.0, 1.0, 0.5, Z, n), 200))
    ws = [r.w for r in recs]
    mono = all(a <= b + 1e-12 for a, b in zip(ws, ws[1:]))
    from .flow import scalar_curvature
    scal = scalar_curvature(Fraction(1), Fraction(1, n + 2), n)
    ok = mono and scal == (4 * n + 2) * (4 * n + 8)
    return ok, f"W nondecreasing over 200 samples; Scal(Einstein) = {scal}"


CHECK_NAMES = [
    "lie_algebra",
    "maurer_cartan_blocks",
    "hpn_curvature",
    "prop_2_4_canonical_ricci",
    "kahler_criterion",
    "contact_identity",
    "hat_alpha_derivatives",
    "prop_3_1_z_ricci",
    "rhs_vs_ricci",
    "closed_form_vs_rk4",
    "invariant_conservation",
    "entropy_monotonicity",
]

_CHECKS = {
    "lie_algebra": _check_lie,
    "maurer_cartan_blocks": _check_blocks,
    "hpn_curvature": _check_hpn,
    "prop_2_4_canonical_ricci": _check_prop24,
    "kahler_criterion": _check_kahler,
    "contact_identity": _check_contact,
    "hat_alpha_derivatives": _check_hat,
    "prop_3_1_z_ricci": _check_prop31,
    "rhs_vs_ricci": _check_rhs,
    "closed_form_vs_rk4": _check_flow_oracle,
    "invariant_conservation": _check_invariants,
    "entropy_monotonicity": _check_entropy,
}


# the checks that read zmetric.z_geometry: run_checks keeps them in one
# process, so each Z point geometry is built once
_Z_GROUP = {"prop_3_1_z_ricci", "rhs_vs_ricci"}


def run_checks(n: int, tamper=None, checks=None) -> list[dict]:
    """Run the verification suite; returns order-stable check records.

    The checks run in two groups, those of _Z_GROUP and the rest, through
    `flow._ordered_map`: on two CPUs a forked child runs the second group
    while this process runs the Z group, and so keeps the memoised Z
    geometries.  The records come back in name order, so the report never
    depends on the process count.  Everything runs in this one process where
    there is one CPU, where os.fork is missing, while another thread runs,
    or when one group is empty (as for a single check).
    """
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    names = sorted(checks or CHECK_NAMES)

    def run_one(name: str) -> dict:
        fn = _CHECKS[name]
        try:
            if name == "maurer_cartan_blocks":
                ok, detail = fn(n, tamper)
            else:
                ok, detail = fn(n)
            return {"check": name, "status": "pass" if ok else "fail", "detail": detail}
        except Exception as ex:  # verification failures are reported, not raised
            return {"check": name, "status": "fail", "detail": f"{type(ex).__name__}: {ex}"}

    groups = [group for group in ([name for name in names if name in _Z_GROUP],
                                  [name for name in names if name not in _Z_GROUP]) if group]
    done = _ordered_map(lambda i: [run_one(name) for name in groups[i]], len(groups))
    report = sorted((rec for records in done for rec in records), key=lambda rec: rec["check"])
    for div in KNOWN_DIVERGENCES:
        report.append({"check": f"divergence:{div['id']}", "status": "note",
                       "detail": div["detail"]})
    return report
