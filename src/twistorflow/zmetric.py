"""The Z-metric family: jet-frame connection, derivation formulas and the
Ricci tensor by exact contraction.

The coframe {lambda ahat_1, lambda ahat_3, X^0..X^3} subtracts from alpha_1,
alpha_3 their pairings with the frame, which vanish at the base point but
carry first-order information: those pairings are grade-1 nilpotent jets
whose exterior derivatives are generated from the covariant derivation
formulas of the frame.  The values the construction leaves open (the p,q,r,s
decomposition of the sp(n)-part, its fiber pairings, second-order expansion
data, optional nilpotent rule ambiguity) enter as formal unknowns, and the
Ricci values are asserted to be independent of every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .canonical import MetricParams, RicciDiag, _ricci_diag, _sp_structure
from .coeff import ONE, Coeff, active_cutoff, jet_symbol
from .forms import (Basis, FormMatrix, OneForm, TwoForm, exterior_derivative, specialize,
                    wedge)
from .liealg import make_rules

__all__ = [
    "ZFrame",
    "z_setup",
    "hat_alpha",
    "hat_alpha_derivatives",
    "connection_z",
    "ricci_z",
    "einstein_solve_z",
    "ricci_map_z",
    "integrability_witness",
    "FORMAL_UNKNOWN_PREFIXES",
]

# prefixes of every formal unknown that must cancel from physical outputs
FORMAL_UNKNOWN_PREFIXES = ("P", "Q", "R", "S", "U", "GF")

# shorthand scalars of the Gamma_0 / Gamma_2 decomposition (paper notation)
P_SYM = jet_symbol("P", 0)
Q_SYM = jet_symbol("Q", 0)
R_SYM = jet_symbol("R", 0)
S_SYM = jet_symbol("S", 0)

# X-parts of d(alpha_i(xi_j)): the jet differentiation table
_T1 = {0: (1, 1), 1: (0, -1), 2: (3, -1), 3: (2, 1)}
_T3 = {0: (3, 1), 1: (2, -1), 2: (1, 1), 3: (0, -1)}

# (sign, target) of the xi_{q,b}-coefficient of (I_j nabla xi_0): for each j,
# entry m gives the coupling of Gamma_m + delta alpha_m
_IJ = {
    0: ((1, 0), (1, 1), (1, 2), (1, 3)),
    1: ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    2: ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    3: ((1, 3), (1, 2), (-1, 1), (-1, 0)),
}


def _a_jet(i: int, j: int, a: int):
    return jet_symbol(f"A[{i},{j},{a}]", 1)


def _u_sym(k: int, grade: int = 0):
    if grade == 0:
        return jet_symbol(f"U[{k}]", 0)
    return jet_symbol(f"U1[{k}]", 1)


def _val(name: str, a: int, b: int, c) -> Coeff:
    return Coeff.symbol(jet_symbol(f"{name}[{a},{b}|{c}]", 0))


def jet_rules_z(n: int, basis: Basis, ambiguity: str = "none") -> dict:
    """d of the frame pairings alpha_i(xi_{j,a}), from the derivation formulas.

    Exact modulo grade-2 terms.  ambiguity controls the alpha_1/alpha_3
    components the displayed table leaves open: "grade1" adds fresh nilpotent
    unknowns U1(k) there; "stripped" deletes the invisible components
    entirely (the literal displayed table); "grade0" adds free first-order
    unknowns U(k), which changes the metric germ itself and is kept only as
    a diagnostic counterexample.
    """
    rules = {}
    ucount = 0
    fiber_idx = (basis.a(1), basis.a(3))
    for i in (1, 3):
        table = _T1 if i == 1 else _T3
        other = 3 if i == 1 else 1
        a2sign = 2 if i == 1 else -2
        for j in range(4):
            for a in range(1, n + 1):
                items = []
                xidx, xsign = table[j]
                items.append((basis.x(xidx, a), ONE.scale(xsign)))
                items.append((basis.a(2), Coeff.symbol(_a_jet(other, j, a), a2sign)))
                for m in range(4):
                    s, q = _IJ[j][m]
                    for b in range(1, n + 1):
                        gidx, gsign = basis.g(m, b, a)
                        if gidx >= 0:
                            items.append((gidx, Coeff.symbol(_a_jet(i, q, b), s * gsign)))
                    if m >= 1:
                        items.append((basis.a(m), Coeff.symbol(_a_jet(i, q, a), s)))
                if ambiguity == "stripped":
                    items = [(idx, c) for (idx, c) in items if idx not in fiber_idx]
                elif ambiguity == "grade0":
                    items.append((basis.a(1), Coeff.symbol(_u_sym(ucount, 0))))
                    items.append((basis.a(3), Coeff.symbol(_u_sym(ucount + 1, 0))))
                    ucount += 2
                elif ambiguity == "grade1":
                    u1, u2 = _u_sym(ucount, 1), _u_sym(ucount + 1, 1)
                    items.append((basis.a(1), Coeff.symbol(u1)))
                    items.append((basis.a(3), Coeff.symbol(u2)))
                    rules[u1] = OneForm({})
                    rules[u2] = OneForm({})
                    ucount += 2
                rules[_a_jet(i, j, a)] = OneForm.build(items)
    return rules


def hat_alpha(i: int, n: int, basis: Basis) -> OneForm:
    """ahat_i = alpha_i - sum_j alpha_i(xi_j) X^j with grade-1 jet coefficients."""
    items = [(basis.a(i), ONE)]
    for j in range(4):
        for a in range(1, n + 1):
            items.append((basis.x(j, a), Coeff.symbol(_a_jet(i, j, a), -1)))
    return OneForm.build(items)


@dataclass
class ZFrame:
    """The hatted fiber coframe plus the jet shorthand of the paper."""

    n: int
    hat_alpha1: OneForm
    hat_alpha3: OneForm
    abcd: dict

    @staticmethod
    def build(n: int) -> "ZFrame":
        basis = Basis(n)
        half = Fraction(1, 2)

        def combo(i, a, s0, s2):
            return (Coeff.symbol(_a_jet(i, 0, a)) * Coeff.symbol(s0)
                    + Coeff.symbol(_a_jet(i, 2, a)) * Coeff.symbol(s2)).scale(half)

        abcd = {}
        for i in (1, 3):
            for a in range(1, n + 1):
                abcd[("a", i, a)] = combo(i, a, P_SYM, R_SYM)
                abcd[("b", i, a)] = combo(i, a, Q_SYM, S_SYM)
                abcd[("c", i, a)] = combo(i, a, R_SYM, P_SYM)
                abcd[("d", i, a)] = combo(i, a, S_SYM, Q_SYM)
        return ZFrame(n, hat_alpha(1, n, basis), hat_alpha(3, n, basis), abcd)


def z_setup(p: MetricParams, ambiguity: str = "none", free_gamma_fiber: bool = False):
    """Basis, rules (Maurer-Cartan + jets), Z-coframe and frame value table,
    symbolic in lambda.

    The fiber lift of the section is sp(n)-parallel (only the sp(1) part
    rotates along the twistor line), so the Gamma~ blocks pair to zero with
    the fiber directions; free_gamma_fiber leaves those values as unknowns
    instead, for independence diagnostics.
    """
    n = p.n
    basis = Basis(n)
    rules = make_rules(_sp_structure(n), basis)
    rules = rules.with_jets(jet_rules_z(n, basis, ambiguity))
    lam = Coeff.lam_power(1)
    lam_inv = Coeff.lam_power(-1)
    coframe = [hat_alpha(1, n, basis).scale(lam), hat_alpha(3, n, basis).scale(lam)]
    coframe += [OneForm.basis(basis.x(i, a), ONE)
                for i in range(4) for a in range(1, n + 1)]

    def gamma_values(vec: dict, scale: Coeff, g0name, g2name, tag) -> None:
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                vec[basis.index[("G", 0, a, b)]] = _val(g0name, a, b, tag) * scale
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                vec[basis.index[("G", 2, a, b)]] = _val(g2name, a, b, tag) * scale

    frames = []
    f = {basis.a(1): lam_inv}
    if free_gamma_fiber:
        gamma_values(f, lam_inv, "GF0", "GF2", "f1")
    frames.append(f)
    f = {basis.a(3): lam_inv}
    if free_gamma_fiber:
        gamma_values(f, lam_inv, "GF0", "GF2", "f3")
    frames.append(f)
    for j in range(4):
        for a in range(1, n + 1):
            f = {basis.x(j, a): ONE,
                 basis.a(1): Coeff.symbol(_a_jet(1, j, a)),
                 basis.a(3): Coeff.symbol(_a_jet(3, j, a))}
            if j == 1:
                gamma_values(f, ONE, "P", "R", a)
            elif j == 3:
                gamma_values(f, ONE, "Q", "S", a)
            frames.append(f)
    block_map = {"fiber": [0, 1], "base": list(range(2, 4 * n + 2))}
    return basis, rules, coframe, frames, block_map


def hat_alpha_derivatives(n: int) -> dict:
    """Compute d ahat_1, d ahat_3 from the derivation formulas and compare
    with the displayed right-hand sides.

    The invariant content of the displayed formulas is verified exactly:
    d ahat_i equals +-2 alpha_2 ^ ahat_j up to jet-weighted Gamma-coupling
    corrections (terms pairing a Gamma~ block against an X with an invisible
    coefficient, which never reach the Ricci values).  The displayed
    correction list itself reflects a different intermediate bookkeeping;
    the term-by-term difference is reported as data.
    """
    basis = Basis(n)
    rules = make_rules(_sp_structure(n), basis)
    rules = rules.with_jets(jet_rules_z(n, basis, ambiguity="none"))
    ah1 = hat_alpha(1, n, basis)
    ah3 = hat_alpha(3, n, basis)
    a2 = OneForm.basis(basis.a(2), ONE)
    d1 = exterior_derivative(ah1, rules)
    d3 = exterior_derivative(ah3, rules)
    clean1 = wedge(a2, ah3).scale(ONE.scale(2))
    clean3 = wedge(a2, ah1).scale(ONE.scale(-2))

    def displayed_gamma_terms(i: int) -> TwoForm:
        # -a_i(xi_0) Gamma_0^X^0 - a_i(xi_2) Gamma_2^X^0
        # -a_i(xi_2) Gamma_0^X^2 - a_i(xi_0) Gamma_2^X^2
        items = []
        for (jjet, m, xcol) in ((0, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2)):
            for a in range(1, n + 1):
                w = Coeff.symbol(_a_jet(i, jjet, a), -1)
                for b in range(1, n + 1):
                    gidx, gsign = basis.g(m, a, b)
                    if gidx >= 0:
                        items.append((gidx, basis.x(xcol, b), w.scale(gsign)))
        return TwoForm.build(items)

    disp1 = clean1 + displayed_gamma_terms(1)
    disp3 = clean3 + displayed_gamma_terms(3)

    def gamma_coupling_only(resid: TwoForm) -> bool:
        nx0, nx1 = 3, 3 + 4 * n
        for (i, j), c in resid.coeffs.items():
            gi = basis.labels[i][0] == "G"
            gj = basis.labels[j][0] == "G"
            xi = nx0 <= i < nx1
            xj = nx0 <= j < nx1
            if not ((gi and xj) or (gj and xi)):
                return False
            if not c.grade_part(0).is_zero() or not c.grade_part(1) == c:
                return False
        return True

    def diff_terms(got: TwoForm, want: TwoForm) -> list:
        d = got - want
        out = []
        for (i, j), c in sorted(d.coeffs.items()):
            out.append((basis.labels[i], basis.labels[j], str(c)))
        return out

    res1 = d1 - clean1
    res3 = d3 - clean3
    return {
        "grade0_part_1": d1.grade_part(0) == clean1.grade_part(0),
        "grade0_part_3": d3.grade_part(0) == clean3.grade_part(0),
        "corrections_are_gamma_couplings_1": gamma_coupling_only(res1),
        "corrections_are_gamma_couplings_3": gamma_coupling_only(res3),
        "d_hat_alpha1_vs_displayed": diff_terms(d1, disp1),
        "d_hat_alpha3_vs_displayed": diff_terms(d3, disp3),
        "holds": (d1.grade_part(0) == clean1.grade_part(0)
                  and d3.grade_part(0) == clean3.grade_part(0)
                  and gamma_coupling_only(res1) and gamma_coupling_only(res3)),
    }


@lru_cache(maxsize=None)
def _z_point_geometry(n: int, ambiguity: str, free_gamma_fiber: bool, cutoff: int):
    """The symbolic Z point geometry; cutoff is the active jet cutoff, part of
    the key only."""
    from .pointcurv import point_geometry
    basis, rules, coframe, frames, block_map = z_setup(MetricParams(n), ambiguity,
                                                       free_gamma_fiber)
    return point_geometry(coframe, rules, frames, block_map=block_map)


def z_geometry(p: MetricParams, ambiguity: str = "none", free_gamma_fiber: bool = False):
    """Connection and curvature of the Z-metric in coframe coordinates.

    omega is the curvature at the base point (its grade-0 part), which is
    all the Ricci contraction reads.  The symbolic geometry is built once per
    (n, ambiguity, free_gamma_fiber, active jet cutoff) and shared by every
    caller, so callers must not mutate it.  gamma and omega are specialized
    at a numeric p.lambda2; the coframe-level data (rules, extras_expansion)
    stay symbolic in lambda.
    """
    geo = _z_point_geometry(p.n, ambiguity, free_gamma_fiber, active_cutoff())
    if p.lambda2 is None:
        return geo
    return replace(geo, gamma=specialize(geo.gamma, p.lambda2),
                   omega=specialize(geo.omega, p.lambda2))


def connection_z(p: MetricParams, ambiguity: str = "none") -> FormMatrix:
    """Levi-Civita connection of the Z-metric over the Z-coframe slots."""
    return z_geometry(p, ambiguity).gamma


def _assert_unknown_free(c: Coeff, where: str) -> None:
    syms = c.symbols()
    bad = [s for s in syms if s.startswith(FORMAL_UNKNOWN_PREFIXES)]
    if bad:
        raise AssertionError(f"{where} depends on formal unknowns: {sorted(bad)[:6]}")


def ricci_z(p: MetricParams, ambiguity: str = "none") -> RicciDiag:
    """Ricci of the Z-metric by second structure equation plus contraction.

    The value at the base point (the contraction of the grade-0 curvature
    over the jet-free slot frames) must be exactly free of every formal
    unknown: the p,q,r,s values, the expansion unknowns and, when enabled,
    the ambiguity terms.
    """
    # contract the symbolic curvature, then specialize only the Ricci matrix
    ric = z_geometry(replace(p, lambda2=None), ambiguity).ricci()
    if p.lambda2 is not None:
        ric = [[c.specialize(p.lambda2) for c in row] for row in ric]
    for i, row in enumerate(ric):
        for j, c in enumerate(row):
            _assert_unknown_free(c, f"Ric[{i}][{j}]")
    return _ricci_diag(ric)


def einstein_solve_z(n: int) -> Fraction:
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    return Fraction(1, n + 2)


def ricci_map_z(p: MetricParams) -> MetricParams:
    """Ric sends every Z-metric to the (scaled) Einstein point of the family;
    homothety invariance of Ric makes the image independent of rho."""
    return MetricParams(p.n, lambda2=Fraction(1, p.n + 2),
                        rho=Fraction(4 * p.n + 8), s_ratio=p.s_ratio)


def integrability_witness(n: int) -> bool:
    """Every monomial of d X^i (via the first structure equation of the
    Z-coframe) contains an X factor, so {X^i = 0} is integrable."""
    geo = z_geometry(MetricParams(n))
    # slots 0,1 are the fiber directions; 2.. are the X slots
    for row in range(2, 4 * n + 2):
        acc = TwoForm({})
        for L in range(4 * n + 2):
            if not geo.gamma.entries[row][L].is_zero():
                acc = acc + wedge(geo.gamma.entries[row][L], geo.coframe[L])
        # d X^i = -(row of Gamma ^ coframe); every term must touch an X slot
        for (i, j) in acc.coeffs:
            if i < 2 and j < 2:
                return False
    return True
