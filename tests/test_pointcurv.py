"""Cross-validation of the coframe-coordinate curvature pipeline.

The canonical family has an independent ambient-form route; rebuilding it
through the point-geometry machinery with unknown Gamma~ frame values must
reproduce the same Ricci tensor with every unknown cancelling.
"""

import re
import sys
from fractions import Fraction

import pytest

from twistorflow.canonical import (MetricParams, canonical_setup, curvature_canonical,
                                   ricci_canonical)
import twistorflow
from twistorflow import coeff, connections, forms
from twistorflow.coeff import Coeff, jet_cutoff, jet_symbol, symbol_name
from twistorflow.connections import (coframe_expansion, levi_civita, ricci_from_gamma,
                                     ricci_matrix)
from twistorflow.forms import DerivativeRules, FormMatrix, curvature, mat_wedge
from twistorflow.liealg import _sp_structure
from twistorflow.pointcurv import point_geometry
from twistorflow.zmetric import _z_point_geometry, ricci_z, z_geometry, z_setup


def test_point_geometry_reproduces_canonical_ricci():
    p = MetricParams(2)
    basis, rules, coframe = canonical_setup(p)
    lam_inv = Coeff.lam_power(-1)
    tags = ["f1", "f3"] + [f"{j}{a}" for j in range(4) for a in (1, 2)]
    values = {}
    for K, tag in enumerate(tags):
        scale = lam_inv if K < 2 else Coeff.rational(1)
        for idx, lab in enumerate(basis.labels):
            if lab[0] == "G":
                name = "GV[" + ",".join(map(str, lab[1:])) + "|" + tag + "]"
                values.setdefault(idx, {})[K] = Coeff.symbol(jet_symbol(name, 0)) * scale
    geo = point_geometry(basis.labels, coframe, rules, values)
    ric = geo.ricci()
    dim = 10
    want = ricci_canonical(p)
    assert ric[0][0].grade_part(0) == want.fiber
    assert ric[1][1].grade_part(0) == want.fiber
    for k in range(2, dim):
        assert ric[k][k].grade_part(0) == want.base
    for i in range(dim):
        for j in range(dim):
            if i != j:
                assert ric[i][j].grade_part(0).is_zero()
            assert not any(s.startswith("GV") for s in ric[i][j].grade_part(0).symbols())


def test_point_geometry_structure_equation_is_checked():
    # the slot-world first structure equation and skewness are enforced by
    # the shared solver; reaching here without exceptions is the assertion
    p = MetricParams(2, lambda2=Fraction(1, 3))
    basis, rules, coframe = canonical_setup(p)
    geo = point_geometry(basis.labels, coframe, rules, {})
    assert geo.gamma.is_skew()
    assert geo.omega.dim == 10


def test_point_geometry_rejects_a_value_on_a_covered_form():
    # values are given only for the forms whose coframe expansion is empty:
    # the Gamma~ blocks of the Z setup, and alpha_2 and the Gamma~ blocks here
    basis, rules, coframe = canonical_setup(MetricParams(2))
    expansion = coframe_expansion(coframe, basis.dim())
    for free_gamma_fiber in (False, True):
        zbasis, _, zcoframe, values = z_setup(2, free_gamma_fiber=free_gamma_fiber)
        assert values and all(zbasis.labels[e][0] == "G" for e in values)
        zexpansion = coframe_expansion(zcoframe, zbasis.dim())
        assert not any(zexpansion[e].coeffs for e in values)
    lam_inv = Coeff.lam_power(-1)
    assert expansion[basis.a(1)].coeffs == {0: lam_inv}
    assert not expansion[basis.a(2)].coeffs
    for e in (basis.a(1), basis.a(3), basis.x(2, 1)):
        label = ",".join(map(str, basis.labels[e]))
        with pytest.raises(ValueError, match=rf"^a value is given for {label}, which the "
                                             r"coframe covers$"):
            point_geometry(basis.labels, coframe, rules, {e: {0: lam_inv}})


def _full_curvature_grade0(gamma, rules):
    """The unpruned second structure equation, cut to grade 0 entry by entry."""
    full = gamma.d(rules) + mat_wedge(gamma, gamma)
    return [[e.grade_part(0) for e in row] for row in full.entries]


@pytest.mark.parametrize("ambiguity, free_gamma_fiber",
                         [("none", False), ("grade1", False), ("none", True)])
def test_curvature_matches_full_structure_equation_z(ambiguity, free_gamma_fiber):
    geo = z_geometry(2, ambiguity, free_gamma_fiber=free_gamma_fiber)
    want = _full_curvature_grade0(geo.gamma, geo.rules)
    assert curvature(geo.gamma, geo.rules).entries == want
    assert geo.omega.entries == want


@pytest.mark.parametrize("s_ratio", [Fraction(1), None])
def test_curvature_matches_full_structure_equation_canonical(s_ratio):
    p = MetricParams(2, s_ratio=s_ratio)
    basis, rules, coframe = canonical_setup(p)
    gamma = levi_civita(coframe, rules)
    want = _full_curvature_grade0(gamma, rules)
    assert curvature(gamma, rules).entries == want
    assert curvature_canonical(p).entries == want


@pytest.mark.parametrize("n, cutoff", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("ambiguity", ["none", "grade1", "stripped", "grade0"])
@pytest.mark.parametrize("free_gamma_fiber", [False, True])
def test_direct_contraction_matches_ricci_of_curvature(n, cutoff, ambiguity, free_gamma_fiber):
    with jet_cutoff(cutoff):
        geo = z_geometry(n, ambiguity, free_gamma_fiber=free_gamma_fiber)
        # geo.ricci() is ricci_from_gamma(geo.gamma, geo.rules)
        assert geo.ricci() == ricci_matrix(curvature(geo.gamma, geo.rules), geo.coframe)


def test_ricci_z_never_builds_the_curvature(monkeypatch):
    calls = []

    def counted(gamma, rules):
        calls.append(gamma.dim)
        return curvature(gamma, rules)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "twistorflow" and getattr(mod, "curvature", None) is curvature:
            monkeypatch.setattr(mod, "curvature", counted)
    assert forms.curvature is counted and twistorflow.pointcurv.curvature is counted
    _z_point_geometry.cache_clear()
    rd = ricci_z(MetricParams(2, lambda2=Fraction(3, 7)))
    assert rd.fiber_at(Fraction(3, 7)) == Fraction(28, 3) and calls == []
    # the lazy omega is built on first read only, and once
    geo = z_geometry(2)
    assert geo.omega is geo.omega and calls == [10]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ambiguity", ["none", "grade1"])
def test_z_geometry_is_integral(n, ambiguity):
    geo = z_geometry(n, ambiguity)
    rules = geo.rules
    forms_ = [e for row in geo.gamma.entries for e in row] + list(rules.d_basis) \
        + list(rules.jet_rules.values())
    for f in forms_:
        for c in f.coeffs.values():
            assert all(type(v) is int for v in c.terms.values()), c
    # the rules of the expansion jets F[label|K]: row K of D
    D = {}
    for sid, rule in rules.jet_rules.items():
        match = re.fullmatch(r"F\[(.*)\|(\d+)\]", symbol_name(sid))
        if match:
            D[match[1], int(match[2])] = rule.coeffs
    assert D
    for (lab, K), row in D.items():
        for M, c in row.items():
            # SYM[label|a,b] enters entries (a, b) and (b, a) only, with coefficient 1
            syms = {s for s in c.symbols() if s.startswith("SYM[")}
            assert syms == {f"SYM[{lab}|{min(K, M)},{max(K, M)}]"}, (lab, K, M)
            sid = jet_symbol(syms.pop(), 0)
            assert [v for (_, mono), v in c.terms.items() if sid in mono] == [1]
            assert c.terms.get((0, (sid,))) == 1
            # the antisymmetric part is what the structure equation fixes
            anti = c - D[lab, M].get(K, Coeff())
            assert not any(s.startswith("SYM[") for s in anti.symbols())


def test_ricci_is_contracted_once_per_geometry(monkeypatch):
    from twistorflow import pointcurv
    calls = []
    real = pointcurv.ricci_from_gamma
    monkeypatch.setattr(pointcurv, "ricci_from_gamma",
                        lambda gamma, rules: calls.append(None) or real(gamma, rules))
    _z_point_geometry.cache_clear()
    geo = z_geometry(2)
    ric = geo.ricci()
    assert geo.ricci() is ric
    # verify's Prop. 3.1 and rhs checks both read the Ricci of this geometry
    assert ricci_z(MetricParams(2)) == ricci_z(MetricParams(2))
    assert len(calls) == 1


@pytest.mark.parametrize("ambiguity", ["none", "grade1"])
def test_curvature_truncates_graded_jet_rules(ambiguity):
    # z_geometry's jet rules are grade 0; give every coefficient a grade-1
    # part as well, which the curvature at the point must not read
    geo = z_geometry(2, ambiguity)
    t = Coeff.rational(1) + Coeff.symbol(jet_symbol("T[graded rules]", 1))
    graded = DerivativeRules(geo.rules.d_basis,
                             {sid: r.scale(t) for sid, r in geo.rules.jet_rules.items()})
    assert any(c.max_grade() == 1 for r in graded.jet_rules.values() for c in r.coeffs.values())
    want = _full_curvature_grade0(geo.gamma, graded)
    assert want == _full_curvature_grade0(geo.gamma, geo.rules)
    omega = curvature(geo.gamma, graded)
    assert omega.entries == want
    ric = ricci_matrix(FormMatrix(omega.dim, want), geo.coframe)
    assert ricci_from_gamma(geo.gamma, graded) == ric == ricci_matrix(omega, geo.coframe)
    assert ric == geo.ricci()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ambiguity", ["none", "grade1", "stripped", "grade0"])
@pytest.mark.parametrize("free_gamma_fiber", [False, True])
def test_z_geometry_jet_rules_are_grade_0(n, ambiguity, free_gamma_fiber):
    geo = z_geometry(n, ambiguity, free_gamma_fiber=free_gamma_fiber)
    assert geo.rules.jet_rules
    for rule in geo.rules.jet_rules.values():
        for c in rule.coeffs.values():
            assert c.max_grade() == 0, c


@pytest.mark.parametrize("s_ratio, odd_sums", [(Fraction(2, 3), 24), (Fraction(1, 2), 24),
                                               (None, 0), ("z", 0)])
def test_levi_civita_halves_as_the_fraction_formula(monkeypatch, s_ratio, odd_sums):
    # _halved closes a 2 Gamma sum (a Coeff or a raw term map), shifts an
    # even int and makes a Fraction only for an odd int or a Fraction
    # (S/S~ = 2/3 gives Fraction sums, 1/2 odd ints): it must give what
    # close and scale(1/2) give, value types included.  The sums are made
    # for K < L only.
    if s_ratio == "z":
        geo = z_geometry(2)
        coframe, rules = geo.coframe, geo.rules
    else:
        _, rules, coframe = canonical_setup(MetricParams(2, s_ratio=s_ratio))

    def closed(v):
        return v if v.__class__ is Coeff else coeff.close(v)

    sums = []
    real = connections._halved
    monkeypatch.setattr(connections, "_halved", lambda v: sums.append(closed(v)) or real(v))
    got = levi_civita(coframe, rules)
    monkeypatch.setattr(connections, "_halved", lambda v: closed(v).scale(Fraction(1, 2)))
    want = levi_civita(coframe, rules)
    assert got == want
    for grow, wrow in zip(got.entries, want.entries):
        for g, w in zip(grow, wrow):
            for idx, c in g.coeffs.items():
                assert {k: type(v) for k, v in c.terms.items()} \
                    == {k: type(v) for k, v in w.coeffs[idx].terms.items()}
    odd = [c for c in sums if any(type(v) is not int or v & 1 for v in c.terms.values())]
    assert len(odd) == odd_sums


def test_z_ricci_work_budget(monkeypatch):
    # a count of ring work, not a timing: the term pairs the one product
    # kernel multiplies and the grade cuts (grade_part, and the one-pass
    # split of each Gamma coefficient) in building z_geometry(3) and its Ricci
    # from cold caches.  Before the kernel, Coeff.__mul__ multiplied 35994
    # term pairs in 23383 products, with 5134 grade cuts; the kernel
    # multiplies 11983 pairs (a unit factor is added, not multiplied), and
    # the split makes 4136 cuts.
    counts = {"pairs": 0, "grade_cuts": 0}
    kernel, grade_part, split = coeff.mul_into, Coeff.grade_part, forms._split01

    def counted_kernel(out, a, b, s=1):
        counts["pairs"] += len(a) * len(b)
        return kernel(out, a, b, s)

    def counted_grade_part(c, grade):
        counts["grade_cuts"] += 1
        return grade_part(c, grade)

    def counted_split(c):
        counts["grade_cuts"] += 1
        return split(c)

    _sp_structure.cache_clear()
    _z_point_geometry.cache_clear()
    for name, module in list(sys.modules.items()):
        if name.startswith("twistorflow") and getattr(module, "mul_into", None) is kernel:
            monkeypatch.setattr(module, "mul_into", counted_kernel)
    monkeypatch.setattr(Coeff, "grade_part", counted_grade_part)
    monkeypatch.setattr(forms, "_split01", counted_split)
    z_geometry(3).ricci()
    monkeypatch.undo()
    # a counter that reads 0 measures nothing: the kernel was bypassed
    assert 0 < counts["pairs"] <= 12220, counts
    assert 0 < counts["grade_cuts"] <= 4220, counts
