from fractions import Fraction

import pytest

from twistorflow.canonical import (MetricParams, OutOfDomain, canonical_setup,
                                   connection_canonical, contact_check, curvature_canonical,
                                   einstein_solve_canonical, kahler_criterion,
                                   ricci_canonical, ricci_map_canonical)
from twistorflow.coeff import Coeff, ONE
from twistorflow.forms import Basis, FormMatrix, OneForm, TwoForm, wedge
from twistorflow.gaussc import commutes_with_j

from transcribed import connection_canonical_transcribed


def entries_equal(A, B):
    return all((A.entries[i][j] - B.entries[i][j]).is_zero()
               for i in range(A.dim) for j in range(A.dim))


def test_params_validation():
    with pytest.raises(ValueError):
        MetricParams(1)
    with pytest.raises(ValueError):
        MetricParams(2, lambda2=Fraction(-1))
    with pytest.raises(ValueError):
        MetricParams(2, rho=Fraction(0))


def test_connection_matches_displayed_matrix():
    for n in (2, 3):
        p = MetricParams(n)
        derived = connection_canonical(p)
        displayed = connection_canonical_transcribed(p)
        assert entries_equal(derived, displayed)
        assert derived.is_skew()


def test_connection_entry_examples():
    p = MetricParams(2)
    G = connection_canonical(p)
    b = Basis(2)
    # entry (1,2) in 1-based indexing is -2 alpha_2
    assert G.entries[0][1].coeffs == {b.a(2): Coeff.rational(-2)}
    # at lambda^2 = 1 the (lambda^2 - 1) corrections vanish
    p1 = MetricParams(2, lambda2=Fraction(1))
    G1 = connection_canonical(p1)
    e = G1.entries[2][3]  # X^0_1 row, X^1_1 column: -Gamma_1(1,1), no alpha part
    assert b.a(1) not in e.coeffs
    e02 = G1.entries[2][6]  # X^0_1 row, X^2_1 column keeps its -alpha_2 part
    assert e02.coeffs[b.a(2)] == Coeff.rational(-1)


def test_first_structure_equation_residual():
    # levi_civita verifies the residual internally; recheck explicitly
    p = MetricParams(2)
    basis, rules, coframe, frames = canonical_setup(p)
    G = connection_canonical(p)
    for K in range(G.dim):
        resid = None
        from twistorflow.forms import exterior_derivative
        resid = exterior_derivative(coframe[K], rules)
        for L in range(G.dim):
            resid = resid + wedge(G.entries[K][L], coframe[L])
        assert resid.is_zero()


def test_curvature_components():
    n = 2
    p = MetricParams(n)
    om = curvature_canonical(p)
    b = Basis(n)
    one = ONE
    lam2c = Coeff.lam_power(2)
    # Omega^{-2}_{-2} = Omega^{-1}_{-1} = 0
    assert om.entries[0][0].is_zero()
    assert om.entries[1][1].is_zero()
    # Omega^{-1}_{-2} = 4 a3^a1 + (4-2L^2)(tX^3^X^1 + tX^2^X^0)
    items = [(b.a(3), b.a(1), Coeff.rational(4))]
    for a in range(1, n + 1):
        items.append((b.x(3, a), b.x(1, a), Coeff.rational(4) - lam2c.scale(2)))
        items.append((b.x(2, a), b.x(0, a), Coeff.rational(4) - lam2c.scale(2)))
    assert om.entries[1][0] == TwoForm.build(items)
    # Omega^0_{-2} = lambda^3 X^0 ^ a1 + (2 lambda - lambda^3) X^2 ^ a3 per
    # column; the displayed sibling with (2L - L^2) is a known typo
    lam3 = Coeff.lam_power(3)
    two_l = Coeff.lam_power(1, 2) - lam3
    for a in range(1, n + 1):
        want = TwoForm.build([(b.x(0, a), b.a(1), lam3), (b.x(2, a), b.a(3), two_l)])
        assert om.entries[2 + (a - 1)][0] == want
        want_m1 = TwoForm.build([(b.x(0, a), b.a(3), lam3),
                                 (b.x(2, a), b.a(1), -two_l)])
        assert om.entries[2 + (a - 1)][1] == want_m1
        # the slot the display prints with (2L - L^2): engine gives (2L - L^3)
        want_2m1 = TwoForm.build([(b.x(2, a), b.a(3), lam3),
                                  (b.x(0, a), b.a(1), two_l)])
        assert om.entries[2 + 2 * n + (a - 1)][1] == want_2m1


def test_ricci_closed_form_symbolic():
    for n in (2, 3, 4):
        rd = ricci_canonical(MetricParams(n))
        assert rd.fiber == Coeff({(-2, ()): Fraction(4), (2, ()): Fraction(4 * n)})
        assert rd.base == Coeff({(0, ()): Fraction(4 * n + 8), (2, ()): Fraction(-4)})
        assert rd.off_diagonal_zero


def test_ricci_values():
    rd = ricci_canonical(MetricParams(2))
    assert rd.fiber_at(1) == 12 and rd.base_at(1) == 12
    assert rd.fiber_at(Fraction(1, 3)) == Fraction(44, 3)
    assert rd.base_at(Fraction(1, 3)) == Fraction(44, 3)
    rd3 = ricci_canonical(MetricParams(3))
    assert rd3.fiber_at(2) == 26 and rd3.base_at(2) == 12


def test_einstein_roots():
    assert einstein_solve_canonical(2) == {Fraction(1), Fraction(1, 3)}
    assert einstein_solve_canonical(5) == {Fraction(1), Fraction(1, 6)}
    rd = ricci_canonical(MetricParams(2))
    for mu in einstein_solve_canonical(2):
        assert rd.fiber_at(mu) == rd.base_at(mu)
    # and only there: the difference is a nonzero rational function elsewhere
    assert rd.fiber_at(Fraction(1, 2)) != rd.base_at(Fraction(1, 2))


def test_ricci_map():
    p = ricci_map_canonical(MetricParams(2, lambda2=Fraction(1)))
    assert p.lambda2 == 1
    p = ricci_map_canonical(MetricParams(2, lambda2=Fraction(1, 3)))
    assert p.lambda2 == Fraction(1, 3)
    # Ric(rho g) = Ric(g): the image does not depend on rho
    for rho in (Fraction(1), Fraction(5)):
        p = ricci_map_canonical(MetricParams(2, lambda2=Fraction(2), rho=rho))
        assert p.lambda2 == Fraction(9, 2)
        assert p.rho == 4 * (2 + 2 - 2)
    with pytest.raises(OutOfDomain):
        ricci_map_canonical(MetricParams(2, lambda2=Fraction(4)))
    # fixed rays of the map are exactly the Einstein roots
    for num in range(1, 12):
        for den in range(1, 8):
            mu = Fraction(num, den)
            if mu >= 4:
                continue
            fixed = ricci_map_canonical(MetricParams(2, lambda2=mu)).lambda2 == mu
            assert fixed == (mu in einstein_solve_canonical(2))


def test_kahler_criterion_grid():
    for n in (2, 3):
        grid = sorted(einstein_solve_canonical(n)) + [Fraction(1, n + 2),
                                                      Fraction(2), Fraction(3, 7)]
        for mu in grid:
            assert kahler_criterion(MetricParams(n, lambda2=mu)) == (mu == 1)
    assert not kahler_criterion(MetricParams(2, lambda2=Fraction(1), s_ratio=Fraction(2)))


def test_kahler_criterion_rejects_a_non_skew_connection(monkeypatch):
    # a multiple of the identity commutes with J but is not skew
    from twistorflow import canonical
    n = 2
    ident = FormMatrix.zero(4 * n + 2)
    for k in range(ident.dim):
        ident.entries[k][k] = OneForm.basis(Basis(n).a(2), ONE)
    assert commutes_with_j(ident, n) and not ident.is_skew()
    monkeypatch.setattr(canonical, "connection_canonical", lambda p: ident)
    with pytest.raises(ValueError, match="fails skew-Hermitian check"):
        kahler_criterion(MetricParams(n, lambda2=Fraction(1)))


def test_contact_identity():
    rep = contact_check(2, None)
    assert rep["holds"] and rep["sp1_split_consistent"]
    assert contact_check(3, None)["holds"]
    assert contact_check(2, Fraction(1))["holds"]
    assert contact_check(2, Fraction(5, 3))["holds"]


def test_curvature_base_blocks():
    # the listed base-block components, model case (no hyper-Kahler part)
    n = 2
    om = curvature_canonical(MetricParams(n))
    b = Basis(n)
    lam2c = Coeff.lam_power(2)

    def xi(i, a):
        return 2 + i * n + (a - 1)

    def xo(i, a, j, c, w):
        return [(b.x(i, a), b.x(j, c), w)]

    # Omega^0_0 block = sum_i X^i ^ tX^i - L^2 (X^1 ^ tX^1 + X^3 ^ tX^3)
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            items = []
            for i in range(4):
                items += xo(i, a, i, c, ONE)
            items += xo(1, a, 1, c, -lam2c)
            items += xo(3, a, 3, c, -lam2c)
            assert om.entries[xi(0, a)][xi(0, c)] == TwoForm.build(items)
    # Omega^2_0 block: X^2^tX^0 - X^0^tX^2 + X^1^tX^3 - X^3^tX^1
    #   + 2(tX^2^X^0 + tX^3^X^1) delta + L^2(X^3^tX^1 - X^1^tX^3)
    #   + (4L^2 - 2L^4) a3^a1 delta; the display prints 4L^2 a3^a1,
    #   dropping the -2(1-L^2)^2 contribution of the alpha-corrected
    #   Gamma quadratics (at L = 1 the -2 a3^a1 value is forced)
    lam4 = Coeff.lam_power(4)
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            items = (xo(2, a, 0, c, ONE) + xo(0, a, 2, c, -ONE)
                     + xo(1, a, 3, c, ONE) + xo(3, a, 1, c, -ONE)
                     + xo(3, a, 1, c, lam2c) + xo(1, a, 3, c, -lam2c))
            if a == c:
                for e in range(1, n + 1):
                    items += xo(2, e, 0, e, Coeff.rational(2))
                    items += xo(3, e, 1, e, Coeff.rational(2))
                items.append((b.a(3), b.a(1), lam2c.scale(4) - lam4.scale(2)))
            assert om.entries[xi(2, a)][xi(0, c)] == TwoForm.build(items)
    # Omega^1_0 block with the scalar 2(tX^1^X^0 + tX^2^X^3) reading
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            items = (xo(1, a, 0, c, ONE) + xo(0, a, 1, c, -ONE)
                     + xo(3, a, 2, c, ONE) + xo(2, a, 3, c, -ONE)
                     + xo(0, a, 1, c, lam2c) + xo(2, a, 3, c, lam2c))
            if a == c:
                for e in range(1, n + 1):
                    items += xo(1, e, 0, e, Coeff.rational(2))
                    items += xo(2, e, 3, e, Coeff.rational(2))
                    items += xo(1, e, 0, e, lam2c.scale(-2))
                    items += xo(2, e, 3, e, lam2c.scale(-2))
            assert om.entries[xi(1, a)][xi(0, c)] == TwoForm.build(items)


def test_ricci_map_identity_prop_4_1():
    # Ric^can at mu equals 4(n+2-mu) times the member at mu' as quadratic
    # forms: base coefficient 4(n+2-mu), fiber coefficient times mu equals
    # 4(n+2-mu) mu'
    for n in (2, 3):
        rd = ricci_canonical(MetricParams(n))
        for num in range(1, 10):
            mu = Fraction(num, 4)
            if mu >= n + 2:
                continue
            mapped = ricci_map_canonical(MetricParams(n, lambda2=mu))
            factor = 4 * (n + 2 - mu)
            assert rd.base_at(mu) == factor
            assert mu * rd.fiber_at(mu) == factor * mapped.lambda2
            assert mapped.rho == factor


def test_complex_curvature_at_kahler_point():
    # at lambda^2 = 1 the complexified curvature preserves types, is
    # skew-Hermitian, and its trace is 2(n+1) times the Kahler form:
    # tr = -2i (n+1)(2 a1^a3 + 2 sum X^0^X^2 + 2 sum X^1^X^3)
    n = 2
    m = 2 * n + 1
    mu = Fraction(1)
    om = curvature_canonical(MetricParams(n, lambda2=mu))
    cmat = _complexify(om, n)
    assert _mixing_blocks_zero(cmat, n) and commutes_with_j(om, n)
    for p in range(m):
        for q in range(m):
            # skew-Hermitian: M[p][q] = -conj(M[q][p])
            (re, im), (re_t, im_t) = cmat[p][q], cmat[q][p]
            assert re == -re_t and im == im_t
    tr_re = tr_im = TwoForm({})
    for p in range(m):
        tr_re, tr_im = tr_re + cmat[p][p][0], tr_im + cmat[p][p][1]
    assert tr_re.is_zero()
    b = Basis(n)
    one = Coeff.rational(1)
    items = [(b.a(1), b.a(3), one.scale(-4 * (n + 1)))]
    for a in range(1, n + 1):
        items.append((b.x(0, a), b.x(2, a), one.scale(-4 * (n + 1))))
        items.append((b.x(1, a), b.x(3, a), one.scale(-4 * (n + 1))))
    assert tr_im == TwoForm.build(items)
    # away from the Kahler point the curvature mixes types
    om2 = curvature_canonical(MetricParams(n, lambda2=Fraction(2)))
    assert not _mixing_blocks_zero(_complexify(om2, n), n) and not commutes_with_j(om2, n)


def test_complex_structure_equation_matrix_at_lambda_one():
    # the holomorphic block of the complexified connection at lambda^2 = 1
    # is the displayed twistor-space structure matrix (rows against the
    # coframe (lambda zeta^0, Z^1, Z^2)):
    #   [ 2i a2    -tZ^2        tZ^1      ]
    #   [ conj Z^2  G0+i(G2+a2) -G1+iG3   ]
    #   [ -conj Z^1 G1+iG3      G0-iG2+ia2]
    n = 2
    mu = Fraction(1)
    cmat = _complexify(connection_canonical(MetricParams(n, lambda2=mu)), n)
    b = Basis(n)
    one = Coeff.rational(1)

    lam = Coeff.lam_power(1)

    def f(idx, c=1):
        return OneForm.basis(idx, one.scale(c))

    def fl(idx, c=1):
        return OneForm.basis(idx, lam.scale(c))

    def gm(m, a, c, s=1):
        idx, sign = b.g(m, a, c)
        return OneForm({}) if idx < 0 else f(idx, s * sign)

    zero = OneForm({})
    assert cmat[0][0] == (zero, f(b.a(2), 2))
    for a in range(1, n + 1):
        # fiber row and column couplings (lambda = 1 kept as the formal root)
        assert cmat[0][a] == (fl(b.x(1, a), -1), fl(b.x(3, a), -1))
        assert cmat[0][n + a] == (fl(b.x(0, a)), fl(b.x(2, a)))
        assert cmat[a][0] == (fl(b.x(1, a)), fl(b.x(3, a), -1))
        assert cmat[n + a][0] == (fl(b.x(0, a), -1), fl(b.x(2, a)))
        for c in range(1, n + 1):
            delta_a2 = f(b.a(2)) if a == c else zero
            assert cmat[a][c] == (gm(0, a, c), gm(2, a, c) + delta_a2)
            assert cmat[a][n + c] == (gm(1, a, c, -1), gm(3, a, c))
            assert cmat[n + a][c] == (gm(1, a, c), gm(3, a, c))
            assert cmat[n + a][n + c] == (gm(0, a, c), gm(2, a, c, -1) + delta_a2)
    # the antiholomorphic block is the conjugate
    m = 2 * n + 1
    for p in range(m):
        for q in range(m):
            re, im = cmat[p][q]
            assert cmat[m + p][m + q] == (re, -im)


def _gmul(a, b):
    """Product of two Gaussian rationals given as (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _complex_unit_table(n):
    """U[p] = {real slot: (re, im)} of each complex coframe form and
    Uinv[s] = {complex slot: (re, im)} of each real one, over the real slots
    (alpha_1, alpha_3, X^i_a at 2 + i n + a - 1): zeta^0 = alpha_1 + i alpha_3,
    Z^1_a = X^0_a + i X^2_a, Z^2_a = X^1_a + i X^3_a, then the conjugates."""
    def x(i, a):
        return 2 + i * n + a - 1

    hol = [(0, 1)] + [(x(0, a), x(2, a)) for a in range(1, n + 1)]
    hol += [(x(1, a), x(3, a)) for a in range(1, n + 1)]
    m, h = len(hol), Fraction(1, 2)
    U, Uinv = [None] * (2 * m), [None] * (2 * m)
    for p, (r1, r2) in enumerate(hol):
        U[p] = {r1: (1, 0), r2: (0, 1)}
        U[m + p] = {r1: (1, 0), r2: (0, -1)}
        # e^r1 = (z + conj z) / 2, e^r2 = (z - conj z) / 2i
        Uinv[r1] = {p: (h, 0), m + p: (h, 0)}
        Uinv[r2] = {p: (0, -h), m + p: (0, h)}
    return U, Uinv


def _complexify(real, n):
    """U M U^-1 of a real form matrix by its definition: entry (p, q) is
    sum_{r,s} U[p][r] M[r][s] Uinv[s][q], as a pair (re, im) of real forms."""
    U, Uinv = _complex_unit_table(n)
    dim, M = len(U), real.entries
    zero = type(M[0][0])({})
    cols = [[(s, Uinv[s][q]) for s in range(dim) if q in Uinv[s]] for q in range(dim)]
    out = []
    for p in range(dim):
        row = []
        for q in range(dim):
            re = im = zero
            for r, u in U[p].items():
                for s, v in cols[q]:
                    wr, wi = _gmul(u, v)
                    re = re + M[r][s].scale(ONE.scale(wr))
                    im = im + M[r][s].scale(ONE.scale(wi))
            row.append((re, im))
        out.append(row)
    return out


def _mixing_blocks_zero(cmat, n):
    """Whether the (1,0) x (0,1) blocks of a complexified matrix vanish."""
    m = 2 * n + 1
    return all(cmat[p][q][0].is_zero() and cmat[p][q][1].is_zero()
               for p in range(2 * m) for q in range(2 * m) if (p < m) != (q < m))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build, mu, s_ratio", [
    (connection_canonical, Fraction(1), 1), (connection_canonical, Fraction(1, 3), 1),
    (connection_canonical, Fraction(2), 1), (connection_canonical, None, 1),
    (curvature_canonical, Fraction(1), 1), (curvature_canonical, Fraction(2), 1),
    # both verdicts: S/S~ = 2 at lambda^2 = 1, the Einstein value 1/(n+1)
    (connection_canonical, Fraction(1), 2), (connection_canonical, "1/(n+1)", 1),
    (curvature_canonical, Fraction(1, 3), 1),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_complex_transform_is_u_m_u_inverse(n, build, mu, s_ratio):
    # commuting with J, read on the real slot pairs, is exactly the vanishing
    # of the mixing blocks of sum_{r,s} U[p][r] M[r][s] Uinv[s][q]
    U, Uinv = _complex_unit_table(n)
    dim = len(U)
    for p in range(dim):
        for q in range(dim):
            prod = (0, 0)
            for r, u in U[p].items():
                v = Uinv[r].get(q, (0, 0))
                prod = tuple(a + b for a, b in zip(prod, _gmul(u, v)))
            assert prod == (int(p == q), 0)
    if mu == "1/(n+1)":
        mu = Fraction(1, n + 1)
    real = build(MetricParams(n, lambda2=mu, s_ratio=Fraction(s_ratio)))
    verdict = commutes_with_j(real, n)
    assert verdict == _mixing_blocks_zero(_complexify(real, n), n)
    assert verdict == (mu == 1 and s_ratio == 1)
