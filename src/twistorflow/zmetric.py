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

from fractions import Fraction
from functools import lru_cache

from .canonical import MetricParams, RicciDiag, _ricci_diag, _sp_structure
from .coeff import ONE, Coeff, active_cutoff, jet_symbol
from .forms import Basis, OneForm, TwoForm, check_n, exterior_derivative, wedge
from .liealg import make_rules

__all__ = [
    "z_setup",
    "z_geometry",
    "jet_rules_z",
    "hat_alpha",
    "hat_alpha_derivatives",
    "ricci_z",
    "einstein_solve_z",
    "integrability_witness",
]

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
    unknowns there, as 2 U1(k) (as free as U1(k), and the Koszul 1/2 then
    leaves the connection integral); "stripped" deletes the invisible components
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
                    items.append((basis.a(1), Coeff.symbol(u1, 2)))
                    items.append((basis.a(3), Coeff.symbol(u2, 2)))
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


def _z_rules(n: int, ambiguity: str):
    """Basis and rules (Maurer-Cartan + jets) of the Z-coframe."""
    basis = Basis(n)
    rules = make_rules(_sp_structure(n), basis)
    return basis, rules.with_jets(jet_rules_z(n, basis, ambiguity))


def z_setup(n: int, ambiguity: str = "none", free_gamma_fiber: bool = False):
    """Basis, rules (Maurer-Cartan + jets), Z-coframe and the point values of
    the Gamma~ forms the coframe does not cover ({form: {slot: value}}, see
    pointcurv.point_geometry), symbolic in lambda.

    The X^1 and X^3 slots carry the p,q,r,s unknowns.  The fiber lift of the
    section is sp(n)-parallel (only the sp(1) part rotates along the twistor
    line), so the Gamma~ blocks pair to zero with the fiber directions;
    free_gamma_fiber leaves those values as unknowns instead, for
    independence diagnostics.
    """
    basis, rules = _z_rules(n, ambiguity)
    lam = Coeff.lam_power(1)
    coframe = [hat_alpha(1, n, basis).scale(lam), hat_alpha(3, n, basis).scale(lam)]
    coframe += [OneForm.basis(basis.x(i, a), ONE)
                for i in range(4) for a in range(1, n + 1)]
    values: dict[int, dict[int, Coeff]] = {}

    def gamma_values(K: int, scale: Coeff, g0name, g2name, tag) -> None:
        # Gamma~_0 (a < b), then Gamma~_2 (a <= b)
        for m, name, first in ((0, g0name, 1), (2, g2name, 0)):
            for a in range(1, n + 1):
                for b in range(a + first, n + 1):
                    value = _val(name, a, b, tag) * scale
                    values.setdefault(basis.index[("G", m, a, b)], {})[K] = value

    if free_gamma_fiber:
        lam_inv = Coeff.lam_power(-1)
        gamma_values(0, lam_inv, "GF0", "GF2", "f1")
        gamma_values(1, lam_inv, "GF0", "GF2", "f3")
    # slot 2 + j n + a - 1 is X^j_a
    for j, g0name, g2name in ((1, "P", "R"), (3, "Q", "S")):
        for a in range(1, n + 1):
            gamma_values(2 + j * n + a - 1, ONE, g0name, g2name, a)
    return basis, rules, coframe, values


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
    basis, rules = _z_rules(n, "none")
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
        for (i, j), c in resid.coeffs.items():
            if {basis.labels[i][0], basis.labels[j][0]} != {"G", "X"}:
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
    basis, rules, coframe, values = z_setup(n, ambiguity, free_gamma_fiber)
    return point_geometry(basis.labels, coframe, rules, values)


def z_geometry(n: int, ambiguity: str = "none", free_gamma_fiber: bool = False):
    """Connection and curvature of the Z-metric in coframe coordinates,
    symbolic in lambda.

    omega is the curvature at the base point (its grade-0 part), computed on
    first read; the Ricci contraction does not read it.  The geometry is
    built once per (n, ambiguity, free_gamma_fiber, active jet cutoff) and
    shared by every caller, so callers must not mutate it.
    """
    return _z_point_geometry(n, ambiguity, free_gamma_fiber, active_cutoff())


def ricci_z(p: MetricParams, ambiguity: str = "none") -> RicciDiag:
    """Ricci of the Z-metric by second structure equation plus contraction.

    The value at the base point (the contraction of the grade-0 curvature
    over the jet-free slot frames) must hold no symbol.  The contraction
    reads no jet, so any symbol left is a formal unknown: a p,q,r,s value,
    an expansion unknown or, when enabled, an ambiguity term.  The values
    are symbolic in lambda for every p: a numeric p.lambda2 is not applied
    here but by RicciDiag.fiber_at/base_at.
    z_setup builds the rules at S/S~ = 1, so any other ratio, or a symbolic
    one, raises ValueError.
    """
    if p.s_ratio != 1:
        raise ValueError("the Z family is built at S/S~ = 1 only")
    ric = z_geometry(p.n, ambiguity).ricci()
    for i, row in enumerate(ric):
        for j, c in enumerate(row):
            if not c.is_jet_free():
                raise AssertionError(f"Ric[{i}][{j}] depends on formal unknowns: "
                                     f"{sorted(c.symbols())[:6]}")
    return _ricci_diag(ric)


def einstein_solve_z(n: int) -> Fraction:
    check_n(n)
    return Fraction(1, n + 2)


def integrability_witness(n: int) -> bool:
    """Every term of d X^i over the slots of the Z-coframe touches an X slot,
    so {X^i = 0} is integrable.  d X^i is read from the slot rules, which
    levi_civita checked to equal -Gamma^i_L ^ theta^L exactly."""
    d_slot = z_geometry(n).rules.d_basis
    # slots 0, 1 are the fiber directions; 2.. are the X slots
    return all((0, 1) not in d_slot[row].coeffs for row in range(2, 4 * n + 2))
