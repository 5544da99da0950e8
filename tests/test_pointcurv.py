"""Cross-validation of the coframe-coordinate curvature pipeline.

The canonical family has an independent ambient-form route; rebuilding it
through the point-geometry machinery with unknown Gamma~ frame values must
reproduce the same Ricci tensor with every unknown cancelling.
"""

from fractions import Fraction

import pytest

from twistorflow.canonical import (MetricParams, canonical_setup, curvature_canonical,
                                   ricci_canonical)
from twistorflow.coeff import Coeff, jet_symbol
from twistorflow.connections import levi_civita
from twistorflow.forms import curvature, mat_wedge
from twistorflow.pointcurv import point_geometry
from twistorflow.zmetric import z_geometry


def test_point_geometry_reproduces_canonical_ricci():
    p = MetricParams(2)
    basis, rules, coframe, frames, bm = canonical_setup(p)
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
    geo = point_geometry(coframe, rules, vf, block_map=bm)
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
    basis, rules, coframe, frames, bm = canonical_setup(p)
    geo = point_geometry(coframe, rules, frames, block_map=bm)
    assert geo.gamma.is_skew()
    assert geo.omega.dim == 10


def _full_curvature_grade0(gamma, rules):
    """The unpruned second structure equation, cut to grade 0 entry by entry."""
    full = gamma.d(rules) + mat_wedge(gamma, gamma)
    return [[e.grade_part(0) for e in row] for row in full.entries]


@pytest.mark.parametrize("ambiguity, free_gamma_fiber",
                         [("none", False), ("grade1", False), ("none", True)])
def test_curvature_matches_full_structure_equation_z(ambiguity, free_gamma_fiber):
    geo = z_geometry(MetricParams(2), ambiguity, free_gamma_fiber=free_gamma_fiber)
    want = _full_curvature_grade0(geo.gamma, geo.rules)
    assert curvature(geo.gamma, geo.rules).entries == want
    assert geo.omega.entries == want


@pytest.mark.parametrize("s_ratio", [Fraction(1), None])
def test_curvature_matches_full_structure_equation_canonical(s_ratio):
    p = MetricParams(2, s_ratio=s_ratio)
    basis, rules, coframe, frames, bm = canonical_setup(p)
    gamma = levi_civita(coframe, rules, block_map=bm)
    want = _full_curvature_grade0(gamma, rules)
    assert curvature(gamma, rules).entries == want
    assert curvature_canonical(p).entries == want
