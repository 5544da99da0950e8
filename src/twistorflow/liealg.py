"""Real matrix Lie algebras sp(n)sp(1) and sp(n+1), structure constants,
Maurer-Cartan block equations, and the quaternion projective space curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coeff import Coeff, ring_value
from .forms import (Basis, DerivativeRules, DimensionMismatch, FormMatrix, OneForm,
                    TwoForm, eval_pair, exterior_derivative, mat_wedge, wedge)

__all__ = [
    "LieAlgebraSpec",
    "StructureConstants",
    "CurvatureTensor",
    "NotClosed",
    "JacobiFailure",
    "EqualIndices",
    "build_sp_basis",
    "build_sp_sp1_basis",
    "right_action_matrices",
    "bracket",
    "structure_constants",
    "exact_rank",
    "jacobi_residual",
    "make_rules",
    "verify_block_equations",
    "hpn_curvature",
    "sectional",
]


class NotClosed(ValueError):
    pass


class JacobiFailure(ValueError):
    pass


class EqualIndices(ValueError):
    pass


@dataclass
class LieAlgebraSpec:
    name: str
    n: int
    basis: list[np.ndarray]
    labels: list[tuple]

    def dim(self) -> int:
        return len(self.basis)

    def matrix_size(self) -> int:
        return self.basis[0].shape[0]


@dataclass
class StructureConstants:
    """Bracket table c^k_{ij} (i < j keys), exact rationals in the ring's
    stored form (an int when integral, else a Fraction)."""

    dim: int
    c: dict[tuple[int, int], dict[int, int | Fraction]] = field(default_factory=dict)

    def get(self, i: int, j: int) -> dict[int, int | Fraction]:
        if i == j:
            return {}
        if i < j:
            return self.c.get((i, j), {})
        return {k: -v for k, v in self.c.get((j, i), {}).items()}

    def tampered(self, i: int, j: int, k: int, delta=1) -> "StructureConstants":
        out = {key: dict(val) for key, val in self.c.items()}
        if i > j:
            i, j, delta = j, i, -delta
        row = out.setdefault((i, j), {})
        row[k] = ring_value(row.get(k, 0) + Fraction(delta))
        if row[k] == 0:
            del row[k]
        return StructureConstants(self.dim, out)


def _sp_matrix(n: int, a1, a2, a3, X, G) -> np.ndarray:
    """Assemble an sp(n+1) element from block components.

    a1..a3 scalars, X a 4 x n integer array (rows X^0..X^3), G a list of four
    n x n arrays (Gamma~_0 antisymmetric, Gamma~_1..3 symmetric).
    """
    D = 4 * (n + 1)
    M = np.zeros((D, D), dtype=np.int64)
    corner = np.array([[0, a1, -a3, a2],
                       [-a1, 0, a2, a3],
                       [a3, -a2, 0, a1],
                       [-a2, -a3, -a1, 0]], dtype=np.int64)
    M[:4, :4] = corner
    X0, X1, X2, X3 = (np.asarray(X[i], dtype=np.int64) for i in range(4))
    rows = [
        [X0, -X1, X3, -X2],
        [X1, X0, -X2, -X3],
        [-X3, X2, X0, -X1],
        [X2, X3, X1, X0],
    ]
    for blk in range(4):
        r0 = 4 + blk * n
        for col in range(4):
            M[r0:r0 + n, col] = rows[blk][col]
            M[col, r0:r0 + n] = -rows[blk][col]
    G0, G1, G2, G3 = (np.asarray(G[m], dtype=np.int64) for m in range(4))
    gblocks = [
        [G0, -G1, G3, -G2],
        [G1, G0, -G2, -G3],
        [-G3, G2, G0, -G1],
        [G2, G3, G1, G0],
    ]
    for bi in range(4):
        for bj in range(4):
            M[4 + bi * n:4 + (bi + 1) * n, 4 + bj * n:4 + (bj + 1) * n] = gblocks[bi][bj]
    return M


def build_sp_basis(n: int) -> LieAlgebraSpec:
    """Basis of sp(n+1) realized in so(4(n+1)), aligned with Basis(n) labels."""
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    basis = Basis(n)
    mats: list[np.ndarray] = []
    zX = np.zeros((4, n), dtype=np.int64)
    zG = [np.zeros((n, n), dtype=np.int64) for _ in range(4)]
    for lab in basis.labels:
        a1 = a2 = a3 = 0
        X = zX.copy()
        G = [g.copy() for g in zG]
        if lab[0] == "A":
            if lab[1] == 1:
                a1 = 1
            elif lab[1] == 2:
                a2 = 1
            else:
                a3 = 1
        elif lab[0] == "X":
            X[lab[1], lab[2] - 1] = 1
        else:
            _, m, a, b = lab
            if m == 0:
                G[0][a - 1, b - 1] = 1
                G[0][b - 1, a - 1] = -1
            else:
                G[m][a - 1, b - 1] = 1
                G[m][b - 1, a - 1] = 1
        mats.append(_sp_matrix(n, a1, a2, a3, X, G))
    return LieAlgebraSpec(f"sp({n + 1})", n, mats, list(basis.labels))


def build_sp_sp1_basis(n: int) -> LieAlgebraSpec:
    """Basis of sp(n) + sp(1) in so(4n), block pattern of the holonomy algebra."""
    if n < 2:
        raise ValueError("paper setting requires n > 1")

    def assemble(A, a) -> np.ndarray:
        A0, A1, A2, A3 = A
        a1, a2, a3 = (x * np.eye(n, dtype=np.int64) for x in a)
        blocks = [
            [A0, -A1 - a1, -A2 - a2, -A3 - a3],
            [A1 + a1, A0, -A3 + a3, A2 - a2],
            [A2 + a2, A3 - a3, A0, -A1 + a1],
            [A3 + a3, -A2 + a2, A1 - a1, A0],
        ]
        return np.block(blocks).astype(np.int64)

    mats, labels = [], []
    zero = [np.zeros((n, n), dtype=np.int64) for _ in range(4)]
    for i in (1, 2, 3):
        a = [0, 0, 0]
        a[i - 1] = 1
        mats.append(assemble(zero, a))
        labels.append(("a", i))
    for a_ in range(1, n + 1):
        for b in range(a_ + 1, n + 1):
            A = [z.copy() for z in zero]
            A[0][a_ - 1, b - 1] = 1
            A[0][b - 1, a_ - 1] = -1
            mats.append(assemble(A, [0, 0, 0]))
            labels.append(("A", 0, a_, b))
    for m in (1, 2, 3):
        for a_ in range(1, n + 1):
            for b in range(a_, n + 1):
                A = [z.copy() for z in zero]
                A[m][a_ - 1, b - 1] = 1
                A[m][b - 1, a_ - 1] = 1
                mats.append(assemble(A, [0, 0, 0]))
                labels.append(("A", m, a_, b))
    return LieAlgebraSpec(f"sp({n})+sp(1)", n, mats, labels)


def right_action_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Right multiplication by i and j on H^(n+1) in the (4+4n) coordinate split."""
    D = 4 * (n + 1)
    Ri = np.zeros((D, D), dtype=np.int64)
    Rj = np.zeros((D, D), dtype=np.int64)
    ri = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=np.int64)
    rj = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.int64)
    Ri[:4, :4] = ri
    Rj[:4, :4] = rj
    E = np.eye(n, dtype=np.int64)
    for bi in range(4):
        for bj in range(4):
            if ri[bi, bj]:
                Ri[4 + bi * n:4 + (bi + 1) * n, 4 + bj * n:4 + (bj + 1) * n] = ri[bi, bj] * E
            if rj[bi, bj]:
                Rj[4 + bi * n:4 + (bi + 1) * n, 4 + bj * n:4 + (bj + 1) * n] = rj[bi, bj] * E
    return Ri, Rj


def bracket(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape != B.shape:
        raise DimensionMismatch(f"{A.shape} != {B.shape}")
    return A @ B - B @ A


def exact_rank(mats: list[np.ndarray]) -> int:
    rows = [[Fraction(int(x)) for x in m.reshape(-1)] for m in mats]
    rank, ncols = 0, len(rows[0])
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


class _Expander:
    """Exact expansion of matrices in a fixed integer basis via the Gram matrix.

    den * G^-1 is an integer matrix, so an expansion is two int64 products:
    num = (den G^-1)(B t) gives the components num / den, and the target lies
    in the span exactly when num B = den t.  Basis entries are small integers,
    far inside the int64 range for every algebra built here.
    """

    def __init__(self, mats: list[np.ndarray]):
        self.flat = np.stack([m.reshape(-1) for m in mats]).astype(np.int64)
        gram_inv = _fraction_inverse(self.flat @ self.flat.T)
        self.den = math.lcm(*(x.denominator for row in gram_inv for x in row))
        self.inv_num = np.array([[int(x * self.den) for x in row] for row in gram_inv],
                                dtype=np.int64)

    def expand(self, target: np.ndarray) -> list[int | Fraction]:
        t = target.reshape(-1).astype(np.int64)
        num = self.inv_num @ (self.flat @ t)
        if not np.array_equal(num @ self.flat, self.den * t):
            raise NotClosed("bracket leaves the span of the basis")
        den = self.den
        return [x // den if x % den == 0 else Fraction(x, den) for x in num.tolist()]


def _fraction_inverse(M: np.ndarray) -> list[list[Fraction]]:
    d = M.shape[0]
    aug = [[Fraction(int(M[i, j])) for j in range(d)] + [Fraction(int(i == j)) for j in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next(i for i in range(col, d) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(d):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[d:] for row in aug]


def structure_constants(L: LieAlgebraSpec, check_jacobi: bool = True) -> StructureConstants:
    d = L.dim()
    exp = _Expander(L.basis)
    table: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    for i in range(d):
        for j in range(i + 1, d):
            comps = exp.expand(bracket(L.basis[i], L.basis[j]))
            row = {k: v for k, v in enumerate(comps) if v}
            if row:
                table[(i, j)] = row
    sc = StructureConstants(d, table)
    if check_jacobi:
        res = jacobi_residual(sc)
        if res is not None:
            raise JacobiFailure(f"Jacobi identity fails at {res}")
    return sc


@lru_cache(maxsize=None)
def _sp_structure(n: int) -> StructureConstants:
    """The Jacobi-checked structure constants of sp(n+1), built once per
    process and shared by every caller: read them, never mutate them."""
    return structure_constants(build_sp_basis(n))


def jacobi_residual(sc: StructureConstants):
    """First violated triple of the Jacobi identity, or None when exact."""
    d = sc.dim
    pairs = {}
    for (i, j), row in sc.c.items():
        pairs.setdefault(i, set()).add(j)
        pairs.setdefault(j, set()).add(i)
    for i in range(d):
        for j in range(i + 1, d):
            cij = sc.get(i, j)
            for k in range(j + 1, d):
                acc: dict[int, int | Fraction] = {}
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in sc.get(a, b).items():
                        for l, w in sc.get(m, cc).items():
                            nv = acc.get(l)
                            nv = v * w if nv is None else nv + v * w
                            if nv:
                                acc[l] = nv
                            else:
                                acc.pop(l, None)
                if acc:
                    return (i, j, k, acc)
    return None


def make_rules(sc: StructureConstants, basis: Basis,
               s_ratio: Coeff | None = None) -> DerivativeRules:
    """Maurer-Cartan differentials d e^k = -1/2 c^k_{ij} e^i ^ e^j.

    An optional scalar curvature ratio multiplies the X^X parts of the
    alpha and Gamma~ differentials (the base-metric rescaling; the model
    case is s_ratio = 1).
    """
    n = basis.n
    dim = basis.dim()
    d_basis = [dict() for _ in range(dim)]
    for (i, j), row in sc.c.items():
        for k, v in row.items():
            d_basis[k][(i, j)] = -v
    out = []
    nx0 = 3
    nx1 = 3 + 4 * n
    for k in range(dim):
        target_scaled = basis.labels[k][0] in ("A", "G")
        coeffs = {}
        for (i, j), v in d_basis[k].items():
            c = Coeff({(0, ()): v})
            if (target_scaled and s_ratio is not None
                    and nx0 <= i < nx1 and nx0 <= j < nx1):
                c = c * s_ratio
            if not c.is_zero():
                coeffs[(i, j)] = c
        out.append(TwoForm(coeffs))
    return DerivativeRules(basis, out)


def _tx_wedge_x(basis: Basis, i: int, j: int) -> TwoForm:
    """Scalar 2-form  tX^i ^ X^j  =  sum_a X^i_a ^ X^j_a."""
    from .coeff import ONE
    items = [(basis.x(i, a), basis.x(j, a), ONE) for a in range(1, basis.n + 1)]
    return TwoForm.build(items)


def _gamma_form(basis: Basis, m: int, a: int, b: int) -> OneForm:
    from .coeff import ONE
    idx, sign = basis.g(m, a, b)
    if idx < 0:
        return OneForm({})
    return OneForm.basis(idx, ONE.scale(sign))


def verify_block_equations(n: int, tamper: tuple[int, int, int] | None = None) -> dict:
    """Recompute the three Maurer-Cartan block families from structure constants.

    Returns a report with exact pass/fail per family; a tampered structure
    constant (i, j, k) serves as a negative control.
    """
    if not (2 <= n <= 4):
        raise ValueError("block verification supported for n in 2..4")
    sc = _sp_structure(n)
    if tamper is not None:
        sc = sc.tampered(*tamper)
    basis = Basis(n)
    rules = make_rules(sc, basis)
    from .coeff import ONE

    def alpha(i: int) -> OneForm:
        return OneForm.basis(basis.a(i), ONE)

    def gmat(m: int) -> list[list[OneForm]]:
        return [[_gamma_form(basis, m, a, b) for b in range(1, n + 1)]
                for a in range(1, n + 1)]

    def mat_d(mat) -> list[list[TwoForm]]:
        return [[exterior_derivative(e, rules) for e in row] for row in mat]

    def mat_wedge2(A, B) -> list[list[TwoForm]]:
        out = []
        for a in range(n):
            row = []
            for b in range(n):
                acc = TwoForm({})
                for c in range(n):
                    acc = acc + wedge(A[a][c], B[c][b])
                row.append(acc)
            out.append(row)
        return out

    def x_outer(i: int, j: int) -> list[list[TwoForm]]:
        return [[TwoForm.build([(basis.x(i, a + 1), basis.x(j, b + 1), ONE)])
                 for b in range(n)] for a in range(n)]

    report = {}

    g = {m: gmat(m) for m in range(4)}
    fam1 = mat_d(g[0])
    for m, sgn in ((0, 1), (1, -1), (2, -1), (3, -1)):
        ww = mat_wedge2(g[m], g[m])
        fam1 = [[fam1[a][b] + (ww[a][b] if sgn > 0 else -ww[a][b]) for b in range(n)]
                for a in range(n)]
    for i in range(4):
        xo = x_outer(i, i)
        fam1 = [[fam1[a][b] - xo[a][b] for b in range(n)] for a in range(n)]
    report["dGamma0"] = all(fam1[a][b].is_zero() for a in range(n) for b in range(n))

    ok2 = True
    for mu, eta, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        e = exterior_derivative(alpha(mu), rules) \
            - wedge(alpha(eta), alpha(nu)).scale(ONE.scale(2)) \
            - _tx_wedge_x(basis, mu, 0) + _tx_wedge_x(basis, 0, mu) \
            + _tx_wedge_x(basis, nu, eta) - _tx_wedge_x(basis, eta, nu)
        ok2 = ok2 and e.is_zero()
    report["dalpha"] = ok2

    ok3 = True
    for mu, eta, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        fam = mat_d(g[mu])
        for A, B, sgn in ((g[mu], g[0], 1), (g[0], g[mu], 1), (g[nu], g[eta], -1),
                          (g[eta], g[nu], 1)):
            ww = mat_wedge2(A, B)
            fam = [[fam[a][b] + (ww[a][b] if sgn > 0 else -ww[a][b]) for b in range(n)]
                   for a in range(n)]
        for i, j, sgn in ((mu, 0, -1), (0, mu, 1), (nu, eta, -1), (eta, nu, 1)):
            xo = x_outer(i, j)
            fam = [[fam[a][b] + (xo[a][b] if sgn > 0 else -xo[a][b]) for b in range(n)]
                   for a in range(n)]
        ok3 = ok3 and all(fam[a][b].is_zero() for a in range(n) for b in range(n))
    report["dGamma_mu"] = ok3

    report["all_pass"] = report["dGamma0"] and report["dalpha"] and report["dGamma_mu"]
    return report


@dataclass
class CurvatureTensor:
    """Riemann tensor R(A,B,C,D) = g(R(e_C,e_D)e_B, e_A) over frame indices 1..4n."""

    n: int
    components: dict[tuple[int, int, int, int], Fraction]

    def component(self, A: int, B: int, C: int, D: int) -> Fraction:
        return self.components.get((A, B, C, D), Fraction(0))

    def check_symmetries(self) -> bool:
        comp = self.component
        keys = set(self.components)
        for (A, B, C, D) in keys:
            v = comp(A, B, C, D)
            if comp(B, A, C, D) != -v or comp(A, B, D, C) != -v or comp(C, D, A, B) != v:
                return False
            if comp(A, B, C, D) + comp(A, C, D, B) + comp(A, D, B, C) != 0:
                return False
        return True

    def ricci_matrix(self) -> list[list[Fraction]]:
        m = 4 * self.n
        return [[sum((self.component(i, k, j, k) for k in range(1, m + 1)), Fraction(0))
                 for j in range(1, m + 1)] for i in range(1, m + 1)]

    def scalar(self) -> Fraction:
        ric = self.ricci_matrix()
        return sum((ric[i][i] for i in range(4 * self.n)), Fraction(0))


def sectional(T: CurvatureTensor, A: int, B: int) -> Fraction:
    if A == B:
        raise EqualIndices("sectional curvature needs distinct frame indices")
    return T.component(A, B, A, B)


def _hpn_blocks_closed_form(basis: Basis) -> list[list[TwoForm]]:
    """The displayed HP^n curvature blocks as a 4x4 block table."""
    n = basis.n
    from .coeff import ONE

    def xo(i, j):
        return [[TwoForm.build([(basis.x(i, a + 1), basis.x(j, b + 1), ONE)])
                 for b in range(n)] for a in range(n)]

    def scalar_diag(two: TwoForm):
        return [[two if a == b else TwoForm({}) for b in range(n)] for a in range(n)]

    def madd(*mats):
        out = [[TwoForm({}) for _ in range(n)] for _ in range(n)]
        for m, sgn in mats:
            out = [[out[a][b] + (m[a][b] if sgn > 0 else -m[a][b]) for b in range(n)]
                   for a in range(n)]
        return out

    om00 = madd((xo(0, 0), 1), (xo(1, 1), 1), (xo(2, 2), 1), (xo(3, 3), 1))

    def om_mu0(mu, eta, nu):
        scal = (_tx_wedge_x(basis, mu, 0) + _tx_wedge_x(basis, eta, nu)).scale(ONE.scale(2))
        return madd((xo(mu, 0), 1), (xo(0, mu), -1), (xo(nu, eta), 1), (xo(eta, nu), -1),
                    (scalar_diag(scal), 1))

    def om_eta_nu(mu, eta, nu):
        scal = (_tx_wedge_x(basis, mu, 0) + _tx_wedge_x(basis, eta, nu)).scale(ONE.scale(2))
        return madd((xo(mu, 0), -1), (xo(0, mu), 1), (xo(nu, eta), -1), (xo(eta, nu), 1),
                    (scalar_diag(scal), 1))

    blocks = [[None] * 4 for _ in range(4)]
    for i in range(4):
        blocks[i][i] = om00
    for mu, eta, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        bm = om_mu0(mu, eta, nu)
        blocks[mu][0] = bm
        blocks[0][mu] = [[-bm[b][a] for b in range(n)] for a in range(n)]
        be = om_eta_nu(mu, eta, nu)
        blocks[eta][nu] = be
        blocks[nu][eta] = [[-be[b][a] for b in range(n)] for a in range(n)]
    return blocks


def _hpn_blocks_maurer_cartan(basis: Basis, sc: StructureConstants) -> list[list[TwoForm]]:
    """HP^n curvature via d Gamma + Gamma ^ Gamma on the holonomy connection (2-2 pattern)."""
    n = basis.n
    rules = make_rules(sc, basis)
    from .coeff import ONE

    def alpha(i):
        return OneForm.basis(basis.a(i), ONE)

    def entry(pat, a, b):
        m, gsgn, asgn = pat
        f = _gamma_form(basis, m, a + 1, b + 1).scale(ONE.scale(gsgn))
        if asgn and a == b:
            f = f + alpha(m).scale(ONE.scale(asgn))
        return f

    # (2-2): row/column block pattern (gamma index, gamma sign, alpha sign)
    pattern = [
        [(0, 1, 0), (1, -1, -1), (2, -1, -1), (3, -1, -1)],
        [(1, 1, 1), (0, 1, 0), (3, -1, 1), (2, 1, -1)],
        [(2, 1, 1), (3, 1, -1), (0, 1, 0), (1, -1, 1)],
        [(3, 1, 1), (2, -1, 1), (1, 1, -1), (0, 1, 0)],
    ]
    dim = 4 * n
    gamma = FormMatrix.zero(dim)
    for bi in range(4):
        for bj in range(4):
            for a in range(n):
                for b in range(n):
                    gamma.entries[bi * n + a][bj * n + b] = entry(pattern[bi][bj], a, b)
    om = gamma.d(rules) + mat_wedge(gamma, gamma)
    blocks = [[[[om.entries[bi * n + a][bj * n + b] for b in range(n)] for a in range(n)]
               for bj in range(4)] for bi in range(4)]
    return blocks, om


def hpn_curvature(n: int, route: str = "both") -> CurvatureTensor:
    """Riemann tensor of HP^n in the quaternion orthonormal frame.

    route "closed_form" transcribes the displayed blocks; "maurer_cartan"
    recomputes them from the structure equations; "both" requires exact
    agreement of the two.
    """
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    basis = Basis(n)
    comps: dict[tuple[int, int, int, int], Fraction] = {}

    def frame(i, a):
        from .coeff import ONE
        return {basis.x(i, a): ONE}

    def blocks_to_components(blocks) -> dict:
        out = {}
        m = 4 * n
        duals = {A: frame((A - 1) // n, (A - 1) % n + 1) for A in range(1, m + 1)}
        for A in range(1, m + 1):
            bi, a = (A - 1) // n, (A - 1) % n
            for B in range(1, m + 1):
                bj, b = (B - 1) // n, (B - 1) % n
                two = blocks[bi][bj]
                if two is None:
                    continue
                w = two[a][b] if isinstance(two, list) else two
                if w.is_zero():
                    continue
                for C in range(1, m + 1):
                    for D in range(C + 1, m + 1):
                        v = eval_pair(w, duals[C], duals[D])
                        if v.is_zero():
                            continue
                        x = v.lam_poly().get(0, Fraction(0))
                        if x:
                            out[(A, B, C, D)] = x
                            out[(A, B, D, C)] = -x
        return out

    if route in ("closed_form", "both"):
        comps = blocks_to_components(_hpn_blocks_closed_form(basis))
    if route in ("maurer_cartan", "both"):
        blocks, om = _hpn_blocks_maurer_cartan(basis, _sp_structure(n))
        for row in om.entries:
            for e in row:
                for (i, j) in e.coeffs:
                    if basis.labels[i][0] != "X" or basis.labels[j][0] != "X":
                        raise ValueError("curvature entry leaves the X-quadratic span")
        comps_mc = blocks_to_components(blocks)
        if route == "both" and comps != comps_mc:
            raise ValueError("closed-form and Maurer-Cartan curvature disagree")
        if route == "maurer_cartan":
            comps = comps_mc
    return CurvatureTensor(n, comps)
