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
from twistorflow import forms
from twistorflow.coeff import Coeff, jet_cutoff, jet_symbol, symbol_name
from twistorflow.connections import levi_civita, ricci_matrix
from twistorflow.forms import curvature, mat_wedge
from twistorflow.pointcurv import point_geometry
from twistorflow.zmetric import _z_point_geometry, ricci_z, z_geometry


def test_point_geometry_reproduces_canonical_ricci():
    p = MetricParams(2)
    basis, rules, coframe, frames = canonical_setup(p)
    lam_inv = Coeff.lam_power(-1)
    tags = ["f1", "f3"] + [f"{j}{a}" for j in range(4) for a in (1, 2)]
    vf = []
    for K, f in enumerate(frames):
        f = dict(f)
        scale = lam_inv if K < 2 else Coeff.rational(1)
        for idx, lab in enumerate(basis.labels):
            if lab[0] == "G":
                name = "GV[" + ",".join(map(str, lab[1:])) + "|" + tags[K] + "]"
                f[idx] = Coeff.symbol(jet_symbol(name, 0)) * scale
        vf.append(f)
    geo = point_geometry(basis.labels, coframe, rules, vf)
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
    basis, rules, coframe, frames = canonical_setup(p)
    geo = point_geometry(basis.labels, coframe, rules, frames)
    assert geo.gamma.is_skew()
    assert geo.omega.dim == 10


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
    basis, rules, coframe, frames = canonical_setup(p)
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
        assert geo.ricci() == ricci_matrix(curvature(geo.gamma, geo.rules), geo.frames)


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
            sid = jet_symbol(syms.pop(), 0).sid
            assert [v for (_, mono), v in c.terms.items() if sid in mono] == [1]
            assert c.terms.get((0, (sid,))) == 1
            # the antisymmetric part is what the structure equation fixes
            anti = c - D[lab, M].get(K, Coeff())
            assert not any(s.startswith("SYM[") for s in anti.symbols())
