import hashlib
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistorflow.liealg import (EqualIndices, NotClosed,
                                bracket, build_sp_basis, build_sp_sp1_basis, exact_rank,
                                hpn_curvature, jacobi_residual, right_action_matrices,
                                sectional, structure_constants, verify_block_equations)
from twistorflow import liealg
from twistorflow.coeff import ONE
from twistorflow.liealg import IntMatrix, LieAlgebraSpec, _Expander, _sp_structure
from twistorflow.forms import DimensionMismatch, TwoForm


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
        bracket(A, IntMatrix(4, {}))


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
    mats = [IntMatrix(4, {(0, 0): 1}), IntMatrix(4, {(1, 1): 1})]
    L = LieAlgebraSpec("abelian", 2, mats, [("d", 0), ("d", 1)])
    sc = structure_constants(L)
    assert sc.c == {}


def test_not_closed_detection():
    e = IntMatrix(2, {(0, 1): 1})
    f = IntMatrix(2, {(1, 0): 1})
    L = LieAlgebraSpec("bad", 2, [e, f], [("e",), ("f",)])
    with pytest.raises(NotClosed):
        structure_constants(L)


def test_dependent_basis_is_rejected():
    e = IntMatrix(2, {(0, 1): 1, (1, 0): -1})
    L = LieAlgebraSpec("dependent", 2, [e, e], [("e",), ("f",)])
    with pytest.raises(ValueError, match="linearly dependent"):
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
    with pytest.raises(ValueError, match="n in 2..6"):
        verify_block_equations(7)


def test_every_single_entry_tamper_is_caught():
    # a tamper whose target is an X form leaves the three block families
    # intact, so the control also Jacobi-checks the tampered table; that
    # check alone catches every single-entry tamper (i < j, k) at n = 2
    sc = structure_constants(build_sp_basis(2))
    escaped = [(i, j, k) for i in range(sc.dim) for j in range(i + 1, sc.dim)
               for k in range(sc.dim) if jacobi_residual(sc.tampered(i, j, k)) is None]
    assert escaped == []
    rep = verify_block_equations(2, tamper=(12, 6, 3))
    assert rep["dGamma0"] and rep["dalpha"] and rep["dGamma_mu"]
    assert rep["jacobi"] is False and rep["all_pass"] is False
    assert "jacobi" not in verify_block_equations(2)


def test_degenerate_tamper_is_rejected():
    # c^k_ii is not a structure constant: the bracket is antisymmetric
    sc = structure_constants(build_sp_basis(2))
    for i, k in ((0, 5), (3, 0)):
        with pytest.raises(ValueError):
            sc.tampered(i, i, k)
    for i, j in ((0, 1), (1, 0)):
        assert sc.tampered(i, j, 2).get(i, j).get(2, 0) == sc.get(i, j).get(2, 0) + 1


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# the first 16 hex digits of the SHA-256 of verify_block_equations reports
# (json, sorted keys): the untampered table at n = 2 and 3, and 300 seeded
# single-entry tampers (i != j, k) at n = 2 joined by newlines
BLOCK_REPORT_GOLDEN = {2: "f7180657a3b04687", 3: "f7180657a3b04687",
                       "tampers": "d56ff57f9b86a73a"}


def test_block_equation_reports_are_pinned():
    for n in (2, 3):
        report = json.dumps(verify_block_equations(n), sort_keys=True)
        assert _sha16(report) == BLOCK_REPORT_GOLDEN[n]
    rng = random.Random(7)
    reports = []
    for _ in range(300):
        i, j = rng.sample(range(21), 2)
        k = rng.randrange(21)
        reports.append(json.dumps(verify_block_equations(2, tamper=(i, j, k)), sort_keys=True))
    assert _sha16("\n".join(reports)) == BLOCK_REPORT_GOLDEN["tampers"]


def _dense(M: IntMatrix) -> list[list[int]]:
    return [[M.entries.get((r, c), 0) for c in range(M.size)] for r in range(M.size)]


# the first 16 hex digits of the SHA-256 of the sp(n+1) structure constants
# (json of the sorted rows [i, j, sorted [k, str(value)]]) and of the dense
# entry lists of the basis and right-action matrices, recorded from the dense
# int64 builders before IntMatrix replaced them
SP_STRUCTURE_GOLDEN = {2: "125c1a6944a66b86", 3: "79ebe2d415f985b5", 4: "27cd6ad2ac217a5e"}
MATRIX_GOLDEN = {
    2: {"sp": "1053955c087e6a2d", "sp+sp1": "c520238ce1356080", "right": "74b27b99f5a60e14"},
    3: {"sp": "0cc8d2ccc61b9eb0", "sp+sp1": "a4e6a850ec29b7fa", "right": "3577903938dd2fc7"},
}


def test_structure_constants_are_pinned():
    for n, want in SP_STRUCTURE_GOLDEN.items():
        rows = [[i, j, sorted([k, str(v)] for k, v in row.items())]
                for (i, j), row in sorted(_sp_structure(n).c.items())]
        assert _sha16(json.dumps(rows)) == want


def test_basis_matrices_are_pinned():
    for n, want in MATRIX_GOLDEN.items():
        mats = {"sp": build_sp_basis(n).basis, "sp+sp1": build_sp_sp1_basis(n).basis,
                "right": right_action_matrices(n)}
        got = {name: _sha16(json.dumps([_dense(M) for M in ms])) for name, ms in mats.items()}
        assert got == want


# sparse entries, with magnitudes past 2**63 where int64 arithmetic would wrap
_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                   st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1]))


@st.composite
def _int_matrix(draw, size):
    pos = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    return IntMatrix(size, draw(st.dictionaries(pos, _ENTRY, max_size=2 * size)))


@st.composite
def _int_matrix_pair(draw):
    size = draw(st.integers(1, 6))
    return draw(_int_matrix(size)), draw(_int_matrix(size))


def _dense_mul(a, b):
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def _dense_zip(a, b, op):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@settings(max_examples=200, deadline=None)
@given(_int_matrix_pair())
def test_int_matrix_agrees_with_a_dense_oracle(pair):
    A, B = pair
    a, b = _dense(A), _dense(B)
    n = A.size
    assert A.shape == (n, n)
    assert _dense(A @ B) == _dense_mul(a, b)
    assert _dense(A + B) == _dense_zip(a, b, lambda x, y: x + y)
    assert _dense(A - B) == _dense_zip(a, b, lambda x, y: x - y)
    assert _dense(-A) == [[-x for x in row] for row in a]
    assert _dense(A.T) == [list(col) for col in zip(*a)]
    assert _dense(bracket(A, B)) == _dense_zip(_dense_mul(a, b), _dense_mul(b, a),
                                               lambda x, y: x - y)
    assert A.any() == any(any(row) for row in a)
    assert not bracket(A, A).any()
    for M in (A, B, A @ B, A + B, A - B, A - A, -A, A.T, bracket(A, B)):
        assert 0 not in M.entries.values()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_int_matrix_sizes_must_agree(size, extra, data):
    A = data.draw(_int_matrix(size))
    B = data.draw(_int_matrix(size + extra))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y, bracket):
        for X, Y in ((A, B), (B, A)):
            with pytest.raises(DimensionMismatch):
                op(X, Y)


def test_hpn_curvature_constants():
    for n in (2, 3):
        T = hpn_curvature(n)
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


def _tampered(monkeypatch, name, extra):
    """Replace liealg.<name> by the real blocks with extra(basis) added to entry (0, 1)."""
    real = getattr(liealg, name)

    def tampered(basis, *args):
        om = real(basis, *args)
        om.entries[0][1] = om.entries[0][1] + extra(basis)
        return om

    monkeypatch.setattr(liealg, name, tampered)


def test_hpn_routes_agree_and_are_checked(monkeypatch):
    # a closed-form block that the structure equations do not reproduce
    _tampered(monkeypatch, "_hpn_blocks_closed_form",
              lambda b: TwoForm.build([(b.x(0, 1), b.x(1, 1), ONE)]))
    with pytest.raises(ValueError, match="disagree"):
        hpn_curvature(2)


def test_hpn_maurer_cartan_blocks_must_stay_x_quadratic(monkeypatch):
    _tampered(monkeypatch, "_hpn_blocks_maurer_cartan",
              lambda b: TwoForm.build([(b.a(1), b.x(0, 1), ONE)]))
    with pytest.raises(ValueError, match="leaves the X-quadratic span"):
        hpn_curvature(2)


def test_verify_builds_the_structure_constants_once(monkeypatch):
    from twistorflow import liealg
    from twistorflow.verify import run_checks
    # one CPU: a check group forked to a second process would count its
    # calls there, not here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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


def test_orthogonal_bases_never_reach_the_dense_inverse(monkeypatch):
    def dense(M):
        raise AssertionError("dense Gram inverse")

    monkeypatch.setattr(liealg, "_fraction_inverse", dense)
    for n in (2, 3):
        for L in (build_sp_basis(n), build_sp_sp1_basis(n)):
            assert jacobi_residual(structure_constants(L)) is None
    with pytest.raises(ValueError, match="singular Gram matrix"):
        _Expander([IntMatrix(2, {(0, 1): 1}), IntMatrix(2, {})])


def test_a_sheared_basis_expands_exactly_through_the_dense_inverse(monkeypatch):
    calls = []
    real = liealg._fraction_inverse
    monkeypatch.setattr(liealg, "_fraction_inverse", lambda M: calls.append(len(M)) or real(M))
    L = build_sp_basis(2)
    plain = _Expander(L.basis)
    # basis 1 becomes b1 + b0, so the Gram matrix is no longer diagonal, and
    # a component c0 b0 + c1 b1 reads (c0 - c1) b0 + c1 (b1 + b0)
    sheared = _Expander([L.basis[0], L.basis[1] + L.basis[0]] + L.basis[2:])
    assert calls == [L.dim()]
    for i, j in ((0, 1), (1, 2), (0, 5), (3, 7), (4, 11)):
        target = bracket(L.basis[i], L.basis[j])
        c = plain.expand(target)
        assert sheared.expand(target) == [c[0] - c[1]] + c[1:]
    with pytest.raises(NotClosed):
        sheared.expand(IntMatrix(12, {(0, 0): 1}))
