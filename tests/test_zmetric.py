import os
from fractions import Fraction

import pytest

from twistorflow.canonical import MetricParams, connection_canonical
from twistorflow.coeff import Coeff, jet_cutoff
from twistorflow.forms import Basis, specialize
from twistorflow.zmetric import (einstein_solve_z, hat_alpha, hat_alpha_derivatives,
                                 integrability_witness, ricci_map_z, ricci_z, z_geometry)


def test_hat_alpha_structure():
    b = Basis(2)
    ah = hat_alpha(1, 2, b)
    assert ah.coeffs[b.a(1)] == Coeff.rational(1)
    assert len(ah.coeffs) == 1 + 8
    for j in range(4):
        for a in (1, 2):
            assert ah.coeffs[b.x(j, a)].max_grade() == 1


def test_hat_alpha_derivatives_report():
    for n in (2, 3):
        rep = hat_alpha_derivatives(n)
        assert rep["holds"], rep
        assert rep["grade0_part_1"] and rep["grade0_part_3"]
        assert rep["corrections_are_gamma_couplings_1"]
        assert rep["corrections_are_gamma_couplings_3"]
        # the displayed Gamma-coupling list reflects other bookkeeping: the
        # difference is reported, never silently dropped
        assert isinstance(rep["d_hat_alpha1_vs_displayed"], list)


def test_negative_control_dropping_leibniz_term():
    # dropping the alpha_1(xi_0) dX^0 Leibniz term breaks the derivation
    from twistorflow.coeff import ONE
    from twistorflow.forms import OneForm, exterior_derivative, wedge
    from twistorflow.liealg import make_rules
    from twistorflow.canonical import _sp_structure
    from twistorflow.zmetric import jet_rules_z
    n = 2
    b = Basis(n)
    rules = make_rules(_sp_structure(n), b)
    rules = rules.with_jets(jet_rules_z(n, b, ambiguity="none"))
    ah1 = hat_alpha(1, n, b)
    broken = OneForm({i: c for i, c in ah1.coeffs.items() if i != b.x(0, 1)})
    d_broken = exterior_derivative(broken, rules)
    ah3 = hat_alpha(3, n, b)
    a2 = OneForm.basis(b.a(2), ONE)
    clean = wedge(a2, ah3).scale(ONE.scale(2))
    assert d_broken.grade_part(0) != clean.grade_part(0)


def test_connection_z_fiber_entries():
    geo = z_geometry(2)
    G = geo.gamma
    assert G.is_skew()
    # entry (1,2) of the display: -2 alpha_2, here in coframe coordinates
    a2_expansion = geo.extras_expansion[1]
    assert (G.entries[0][1] - a2_expansion.scale(Coeff.rational(-2))).is_zero()
    # fiber-base coupling carries no value part (all jet corrections)
    for j in range(2, 10):
        assert G.entries[0][j].grade_part(0).is_zero()
        assert G.entries[1][j].grade_part(0).is_zero()


def test_connection_z_base_blocks_vs_displayed():
    # base blocks: Gamma_0/Gamma_2 appear through their p,q,r,s values,
    # Gamma_1/Gamma_3 vanish at the point, and the displayed -alpha_1/+alpha_3
    # corrections of the (X^0,X^1) and (X^1,X^2) slots appear exactly
    n = 2
    geo = z_geometry(n)
    G = geo.gamma
    e = G.entries[2][4].grade_part(0)  # X^0_1 row, X^1_1 col
    assert e.coeffs == {0: Coeff.lam_power(-1, -1)}  # = -ahat_1
    e = G.entries[4][6].grade_part(0)  # X^1_1 row, X^2_1 col
    assert e.coeffs == {1: Coeff.lam_power(-1)}  # = +ahat_3
    e = G.entries[2][3].grade_part(0)  # X^0_1 row, X^0_2 col: Gamma_0(1,2) values
    assert set().union(*(c.symbols() for c in e.coeffs.values())) \
        == {"P[1,2|1]", "P[1,2|2]", "Q[1,2|1]", "Q[1,2|2]"}


def test_connection_z_at_lambda_one_vs_canonical():
    # grade-0 parts at lambda = 1: the Gamma-blocks agree with the canonical
    # connection under the point conditions (Gamma_1 = Gamma_3 = 0, values for
    # Gamma_0/Gamma_2), while the fiber-base blocks differ: the canonical
    # -+lambda tX entries have no Z counterpart, and the displayed -+alpha
    # corrections remain at lambda = 1
    mu = Fraction(1)
    Gz = specialize(z_geometry(2).gamma, mu)
    Gc = connection_canonical(MetricParams(2, lambda2=mu))
    b = Basis(2)
    for f in (0, 1):
        for j in range(2, 10):
            assert not Gc.entries[f][j].is_zero()          # canonical couples
            assert Gz.entries[f][j].grade_part(0).is_zero()  # Z does not
    # canonical (X^0_1, X^1_1) slot has no alpha content at lambda = 1; Z has -ahat_1
    assert b.a(1) not in Gc.entries[2][3].coeffs
    assert Gz.entries[2][4].grade_part(0).coeffs


def test_ricci_z_symbolic():
    for n in (2, 3):
        rd = ricci_z(MetricParams(n))
        assert rd.fiber == Coeff({(-2, ()): Fraction(4)})
        assert rd.base == Coeff.rational(4 * n + 8)
        assert rd.off_diagonal_zero


def test_ricci_z_values():
    rd = ricci_z(MetricParams(2))
    assert rd.fiber_at(Fraction(1, 4)) == 16 and rd.base_at(Fraction(1, 4)) == 16
    rd3 = ricci_z(MetricParams(3))
    assert rd3.fiber_at(1) == 4 and rd3.base_at(1) == 20


def test_ricci_z_unknown_independence():
    # diagonals survive with the Gamma-fiber values left free
    geo = z_geometry(2, free_gamma_fiber=True)
    ric = geo.ricci()
    assert ric[0][0].grade_part(0) == Coeff({(-2, ()): Fraction(4)})
    assert ric[2][2].grade_part(0) == Coeff.rational(16)


def test_ricci_z_ambiguity_modes():
    fib = Coeff({(-2, ()): Fraction(4)})
    base = Coeff.rational(16)
    rd = ricci_z(MetricParams(2), ambiguity="grade1")
    assert rd.fiber == fib and rd.base == base and rd.off_diagonal_zero
    # first-order-free unknowns on the rules change the metric germ: the
    # dependence is real and the unknown-freedom assertion must fire
    with pytest.raises(AssertionError):
        ricci_z(MetricParams(2), ambiguity="grade0")
    # dropping the invisible components entirely (the literal displayed
    # table) shifts the values: the omitted terms are load-bearing
    rd_stripped = ricci_z(MetricParams(2), ambiguity="stripped")
    assert rd_stripped.fiber == fib + Coeff.rational(-8)
    assert rd_stripped.base == Coeff.rational(14)


def test_truncation_soundness():
    rd2 = ricci_z(MetricParams(2))
    with jet_cutoff(3):
        rd3 = ricci_z(MetricParams(2))
    assert rd3.fiber.grade_part(0) == rd2.fiber
    assert rd3.base.grade_part(0) == rd2.base
    assert rd3 == rd2


def test_einstein_z():
    assert einstein_solve_z(2) == Fraction(1, 4)
    assert einstein_solve_z(6) == Fraction(1, 8)
    rd = ricci_z(MetricParams(2))
    mu = einstein_solve_z(2)
    assert rd.fiber_at(mu) == rd.base_at(mu)
    with pytest.raises(ValueError):
        einstein_solve_z(1)


def test_ricci_map_z():
    for mu in (Fraction(1, 2), Fraction(2), Fraction(1, 4)):
        for rho in (Fraction(1), Fraction(5)):
            out = ricci_map_z(MetricParams(2, lambda2=mu, rho=rho))
            assert out.lambda2 == Fraction(1, 4)
            assert out.rho == 16
    # idempotent on the image ray up to scale
    again = ricci_map_z(ricci_map_z(MetricParams(2, lambda2=Fraction(1, 2))))
    assert again.lambda2 == Fraction(1, 4)


@pytest.mark.parametrize("s_ratio", [Fraction(2), None])
def test_z_family_rejects_a_ratio_other_than_one(s_ratio):
    # the Z rules are built at S/S~ = 1: another ratio must not get that answer
    p = MetricParams(2, lambda2=Fraction(1, 2), s_ratio=s_ratio)
    with pytest.raises(ValueError):
        ricci_z(p)
    with pytest.raises(ValueError):
        ricci_map_z(p)


def test_integrability_witness():
    assert integrability_witness(2)


def test_geometry_memo_is_keyed_on_the_jet_cutoff():
    geo2 = z_geometry(2)
    assert z_geometry(2) is geo2
    with jet_cutoff(3):
        geo3 = z_geometry(2)
        assert geo3 is not geo2
        assert z_geometry(2) is geo3
        assert any(c.max_grade() == 2 for row in geo3.gamma.entries
                   for e in row for c in e.coeffs.values())
    assert z_geometry(2) is geo2


def test_verify_builds_each_z_geometry_once(monkeypatch):
    from twistorflow import canonical, zmetric
    from twistorflow.verify import run_checks
    # one CPU: a check group forked to a second process would count its
    # calls there, not here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    zmetric._z_point_geometry.cache_clear()
    canonical._solve_canonical.cache_clear()
    calls = []
    real = zmetric.z_setup

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(zmetric, "z_setup", counted)
    rep = run_checks(2)
    assert all(r["status"] != "fail" for r in rep)
    assert calls == [("none", False), ("grade1", False)]
