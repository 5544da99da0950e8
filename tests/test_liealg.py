from fractions import Fraction

import numpy as np
import pytest

from twistorflow.liealg import (EqualIndices, NotClosed,
                                bracket, build_sp_basis, build_sp_sp1_basis, exact_rank,
                                hpn_curvature, jacobi_residual, right_action_matrices,
                                sectional, structure_constants, verify_block_equations)
from twistorflow.liealg import LieAlgebraSpec, _Expander
from twistorflow.forms import DimensionMismatch


def test_dimensions_and_rank():
    for n in (2, 3):
        L = build_sp_basis(n)
        assert L.dim() == (n + 1) * (2 * n + 3)
        assert exact_rank(L.basis) == L.dim()
        L1 = build_sp_sp1_basis(n)
        assert L1.dim() == n * (2 * n + 1) + 3
        assert exact_rank(L1.basis) == L1.dim()
    assert build_sp_basis(2).dim() == 21
    assert build_sp_basis(3).dim() == 36


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_sp_basis(1)
    with pytest.raises(ValueError):
        build_sp_sp1_basis(1)


def test_basis_antisymmetric_and_h_linear():
    for n in (2, 3):
        L = build_sp_basis(n)
        Ri, Rj = right_action_matrices(n)
        for M in L.basis:
            assert not (M + M.T).any()
            assert not (M @ Ri - Ri @ M).any()
            assert not (M @ Rj - Rj @ M).any()
        for M in build_sp_sp1_basis(n).basis:
            assert not (M + M.T).any()


def test_bracket_basics():
    L = build_sp_basis(2)
    A = L.basis[0]
    assert not bracket(A, A).any()
    with pytest.raises(DimensionMismatch):
        bracket(A, np.zeros((4, 4), dtype=np.int64))


def test_bracket_alpha_relations():
    # [alpha_1 slot, alpha_2 slot] = -2 (alpha_3 slot): direct 12x12 product
    L = build_sp_basis(2)
    B = bracket(L.basis[0], L.basis[1])
    comps = _Expander(L.basis).expand(B)
    nonzero = {i: c for i, c in enumerate(comps) if c}
    assert nonzero == {2: Fraction(-2)}
    # consistent with d alpha_3 = 2 alpha_1 ^ alpha_2 + (base part)
    sc = structure_constants(L)
    assert sc.get(0, 1)[2] == Fraction(-2)


def test_bracket_closure_all_pairs():
    L = build_sp_basis(2)
    exp = _Expander(L.basis)
    for i in range(L.dim()):
        for j in range(i + 1, L.dim()):
            exp.expand(bracket(L.basis[i], L.basis[j]))  # raises NotClosed on failure


def test_structure_constants_jacobi():
    for n in (2, 3):
        sc = structure_constants(build_sp_basis(n))
        assert jacobi_residual(sc) is None


def test_sp1_restriction_factor_two():
    # the alpha-sector bracket table matches d alpha_mu = 2 alpha_eta ^ alpha_nu
    sc = structure_constants(build_sp_basis(2))
    assert sc.get(0, 1) == {2: Fraction(-2)}
    assert sc.get(1, 2) == {0: Fraction(-2)}
    assert sc.get(2, 0) == {1: Fraction(-2)}


def test_abelian_diagonal_algebra():
    mats = [np.diag([1, 0, 0, 0]).astype(np.int64), np.diag([0, 1, 0, 0]).astype(np.int64)]
    L = LieAlgebraSpec("abelian", 2, mats, [("d", 0), ("d", 1)])
    sc = structure_constants(L)
    assert sc.c == {}


def test_not_closed_detection():
    e = np.array([[0, 1], [0, 0]], dtype=np.int64)
    f = np.array([[0, 0], [1, 0]], dtype=np.int64)
    L = LieAlgebraSpec("bad", 2, [e, f], [("e",), ("f",)])
    with pytest.raises(NotClosed):
        structure_constants(L)


def test_jacobi_failure_detection():
    sc = structure_constants(build_sp_basis(2))
    bad = sc.tampered(0, 1, 2)
    assert jacobi_residual(bad) is not None


def test_block_equations():
    for n in (2, 3):
        rep = verify_block_equations(n)
        assert rep["all_pass"], rep
    bad = verify_block_equations(2, tamper=(0, 1, 2))
    assert not bad["all_pass"]
    assert not bad["dalpha"]
    with pytest.raises(ValueError):
        verify_block_equations(5)


def test_hpn_curvature_constants():
    for n in (2, 3):
        T = hpn_curvature(n, route="both")
        assert T.check_symmetries()
        m = 4 * n
        # pinching: frame-pair sectional curvatures lie in {1, 4}
        secs = {sectional(T, A, B) for A in range(1, m + 1)
                for B in range(1, m + 1) if A != B}
        assert secs == {Fraction(1), Fraction(4)}
        assert sectional(T, 1, n + 1) == 4
        assert sectional(T, 1, 2 * n + 1) == 4
        assert sectional(T, 1, 3 * n + 1) == 4
        for a in range(2, n + 1):
            assert sectional(T, 1, a) == 1
        ric = T.ricci_matrix()
        for i in range(m):
            for j in range(m):
                assert ric[i][j] == (4 * (n + 2) if i == j else 0)
        assert T.scalar() == 16 * n * (n + 2)


def test_sectional_symmetry_and_contraction():
    T = hpn_curvature(2)
    m = 8
    for A in range(1, m + 1):
        for B in range(1, m + 1):
            if A != B:
                assert sectional(T, A, B) == sectional(T, B, A)
    total = sum((sectional(T, 1, B) for B in range(2, m + 1)), Fraction(0))
    assert total == 4 * (2 + 2)
    with pytest.raises(EqualIndices):
        sectional(T, 3, 3)


def test_hpn_routes_agree_and_are_checked():
    a = hpn_curvature(2, route="closed_form")
    b = hpn_curvature(2, route="maurer_cartan")
    assert a.components == b.components


def test_verify_builds_the_structure_constants_once(monkeypatch):
    from twistorflow import liealg
    from twistorflow.verify import run_checks
    liealg._sp_structure.cache_clear()
    calls = []
    real = liealg.structure_constants

    def counted(L, *args, **kwargs):
        calls.append(L.name)
        return real(L, *args, **kwargs)

    monkeypatch.setattr(liealg, "structure_constants", counted)
    rep = run_checks(2)
    assert all(r["status"] != "fail" for r in rep)
    assert calls == ["sp(3)"]
