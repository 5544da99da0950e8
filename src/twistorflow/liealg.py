"""Real matrix Lie algebras sp(n)sp(1) and sp(n+1), structure constants,
Maurer-Cartan block equations, and the quaternion projective space curvature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .coeff import ONE, Coeff, ring_value
from .connections import levi_civita
from .forms import (Basis, DerivativeRules, DimensionMismatch, FormMatrix, OneForm,
                    TwoForm, curvature, exterior_derivative, frame_index, mat_wedge,
                    pairing_table, wedge)

__all__ = [
    "LieAlgebraSpec",
    "IntMatrix",
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
    "MAX_QUERY_N",
]

# largest n that verify, ricci and curvature accept: their cost grows
# geometrically in n (ricci --family z about 2.7x per step); n < 2 is
# rejected by the model itself
MAX_QUERY_N = 6


class NotClosed(ValueError):
    pass


class JacobiFailure(ValueError):
    pass


class EqualIndices(ValueError):
    pass


class LieAlgebraSpec:
    """A named matrix Lie algebra: basis[k] is the matrix labelled labels[k]."""

    __slots__ = ("name", "n", "basis", "labels")

    def __init__(self, name: str, n: int, basis: list[IntMatrix], labels: list[tuple]):
        self.name = name
        self.n = n
        self.basis = basis
        self.labels = labels

    def dim(self) -> int:
        return len(self.basis)


class StructureConstants:
    """Bracket table c^k_{ij} (i < j keys), exact rationals in the ring's
    stored form (an int when integral, else a Fraction)."""

    __slots__ = ("dim", "c")

    def __init__(self, dim: int,
                 c: dict[tuple[int, int], dict[int, int | Fraction]] | None = None):
        self.dim = dim
        self.c = {} if c is None else c

    def get(self, i: int, j: int) -> dict[int, int | Fraction]:
        if i == j:
            return {}
        if i < j:
            return self.c.get((i, j), {})
        return {k: -v for k, v in self.c.get((j, i), {}).items()}

    def tampered(self, i: int, j: int, k: int) -> "StructureConstants":
        """A copy with c^k_ij raised by one (so c^k_ji lowered by one)."""
        if i == j:
            raise ValueError("c^k_ii is not a structure constant (the bracket is antisymmetric)")
        out = {key: dict(val) for key, val in self.c.items()}
        delta = 1
        if i > j:
            i, j, delta = j, i, -1
        row = out.setdefault((i, j), {})
        row[k] = ring_value(row.get(k, 0) + delta)
        if row[k] == 0:
            del row[k]
        return StructureConstants(self.dim, out)


class IntMatrix:
    """A square matrix of Python ints, exact at any size, stored sparsely as
    {(row, col): nonzero int}; it has only what the builders and checks use."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries: dict[tuple[int, int], int]):
        self.size = size
        self.entries = {k: v for k, v in entries.items() if v}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix(self.size, {(c, r): v for (r, c), v in self.entries.items()})

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        _same_shape(self, other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return IntMatrix(self.size, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.size, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        _same_shape(self, other)
        rows: dict[int, list[tuple[int, int]]] = {}
        for (k, c), w in other.entries.items():
            rows.setdefault(k, []).append((c, w))
        out: dict[tuple[int, int], int] = {}
        for (r, k), v in self.entries.items():
            for c, w in rows.get(k, ()):
                out[(r, c)] = out.get((r, c), 0) + v * w
        return IntMatrix(self.size, out)

    def any(self) -> bool:
        return bool(self.entries)


def _pattern(*rows: str) -> dict[int, list[tuple[int, int, int]]]:
    """Read a 4 x 4 block pattern, one signed quaternion component per
    block, into {component: [(block row, block column, sign)]}."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for bi, row in enumerate(rows):
        for bj, cell in enumerate(row.split()):
            out.setdefault(int(cell[1:]), []).append((bi, bj, 1 if cell[0] == "+" else -1))
    return out


# real 4 x 4 forms of the quaternion units 1, i, j, k (components 0..3):
# left and right multiplication in the basis 1, i, j, k, and the unit
# blocks of sp(n+1) in its so(4(n+1)) coordinates
_LEFT = _pattern("+0 -1 -2 -3", "+1 +0 -3 +2", "+2 +3 +0 -1", "+3 -2 +1 +0")
_RIGHT = _pattern("+0 -1 -2 -3", "+1 +0 +3 -2", "+2 -3 +0 +1", "+3 +2 -1 +0")
_SP_UNITS = _pattern("+0 -1 +3 -2", "+1 +0 -2 -3", "-3 +2 +0 -1", "+2 +3 +1 +0")


def _sp_coord(n: int):
    """Real coordinate of component c of the quaternionic row a of H^(n+1):
    the first H (a = 0), then H^n as four blocks of n, one per component."""
    return lambda c, a: c if a == 0 else 4 + c * n + a - 1


def _quaternionic(size: int, coord, units: dict, comp: int, cells: dict) -> IntMatrix:
    """Real form of the quaternionic matrix with entry v times unit `comp`
    at each cell (a, b) -> v."""
    M: dict[tuple[int, int], int] = {}
    for bi, bj, sign in units[comp]:
        for (a, b), v in cells.items():
            M[(coord(bi, a), coord(bj, b))] = sign * v
    return IntMatrix(size, M)


def _skew(size: int, coord, units: dict, comp: int, a: int, b: int, v: int = 1) -> IntMatrix:
    """The skew-Hermitian matrix with v times unit `comp` at (a, b) and minus
    its conjugate at (b, a); an imaginary unit on the diagonal is its own."""
    N = _quaternionic(size, coord, units, comp, {(a, b): v})
    return N if a == b else N - N.T


def _sp_matrix(n: int, lab: tuple) -> IntMatrix:
    """The sp(n+1) basis matrix of a Basis(n) label: alpha_k is minus the
    unit k at (0, 0), X^i_a the unit i at (a, 0), Gamma~_m the unit m at (a, b)."""
    if lab[0] == "A":
        a, b, v = 0, 0, -1
    elif lab[0] == "X":
        a, b, v = lab[2], 0, 1
    else:
        a, b, v = lab[2], lab[3], 1
    return _skew(4 * (n + 1), _sp_coord(n), _SP_UNITS, lab[1], a, b, v)


def build_sp_basis(n: int) -> LieAlgebraSpec:
    """Basis of sp(n+1) realized in so(4(n+1)), aligned with Basis(n) labels."""
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    labels = list(Basis(n).labels)
    return LieAlgebraSpec(f"sp({n + 1})", n, [_sp_matrix(n, lab) for lab in labels], labels)


def build_sp_sp1_basis(n: int) -> LieAlgebraSpec:
    """Basis of sp(n) + sp(1) in so(4n), block pattern of the holonomy algebra:
    sp(1) acts by right multiplication, sp(n) by left."""
    if n < 2:
        raise ValueError("paper setting requires n > 1")

    def coord(c: int, a: int) -> int:
        return c * n + a

    eye = {(a, a): 1 for a in range(n)}
    mats = [_quaternionic(4 * n, coord, _RIGHT, i, eye) for i in (1, 2, 3)]
    labels: list[tuple] = [("a", i) for i in (1, 2, 3)]
    for m in range(4):
        for a in range(1, n + 1):
            for b in range(a + (m == 0), n + 1):
                mats.append(_skew(4 * n, coord, _LEFT, m, a - 1, b - 1))
                labels.append(("A", m, a, b))
    return LieAlgebraSpec(f"sp({n})+sp(1)", n, mats, labels)


def right_action_matrices(n: int) -> tuple[IntMatrix, IntMatrix]:
    """Right multiplication by i and j on H^(n+1) in the (4+4n) coordinate split."""
    eye = {(a, a): 1 for a in range(n + 1)}
    Ri, Rj = (_quaternionic(4 * (n + 1), _sp_coord(n), _RIGHT, i, eye) for i in (1, 2))
    return Ri, Rj


def _same_shape(A: IntMatrix, B: IntMatrix) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"{A.shape} != {B.shape}")


def bracket(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return A @ B - B @ A


def exact_rank(mats: list[IntMatrix]) -> int:
    """Rank of the matrices as vectors, by fraction-free sparse elimination."""
    pivots: list[tuple[tuple[int, int], dict]] = []
    for m in mats:
        row = m.entries
        # each pivot row is zero on the pivots found before it, so reducing
        # in order clears every pivot position of `row`
        for pos, prow in pivots:
            x = row.get(pos)
            if x:
                p = prow[pos]
                row = {q: v for q in row.keys() | prow.keys()
                       if (v := p * row.get(q, 0) - x * prow.get(q, 0))}
        if row:
            pivots.append((min(row), row))
    return len(pivots)


class _Expander:
    """Exact expansion of matrices in a fixed integer basis via the Gram matrix.

    den * G^-1 is an integer matrix, so an expansion is two integer products:
    num = (den G^-1)(B t) gives the components num / den, and the target lies
    in the span exactly when num B = den t.  Basis entries are indexed by
    position, so an expansion touches only the target's own positions.
    """

    def __init__(self, mats: list[IntMatrix]):
        self.mats = mats
        self.at: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for k, m in enumerate(mats):
            for pos, v in m.entries.items():
                self.at.setdefault(pos, []).append((k, v))
        d = len(mats)
        gram = [[0] * d for _ in range(d)]
        for overlap in self.at.values():
            for k, v in overlap:
                for l, w in overlap:
                    gram[k][l] += v * w
        self.den, self.inv_cols = _scaled_inverse(gram)

    def expand(self, target: IntMatrix) -> list[int | Fraction]:
        bt: dict[int, int] = {}
        for pos, v in target.entries.items():
            for l, w in self.at.get(pos, ()):
                bt[l] = bt.get(l, 0) + w * v
        num = [0] * len(self.mats)
        for l, x in bt.items():
            for k, g in self.inv_cols[l]:
                num[k] += g * x
        back: dict[tuple[int, int], int] = {}
        for k, x in enumerate(num):
            if x:
                for pos, v in self.mats[k].entries.items():
                    back[pos] = back.get(pos, 0) + x * v
        den = self.den
        if IntMatrix(target.size, back).entries != {p: den * v for p, v in target.entries.items()}:
            raise NotClosed("bracket leaves the span of the basis")
        return [x // den if x % den == 0 else Fraction(x, den) for x in num]


def _scaled_inverse(gram: list[list[int]]) -> tuple[int, list[list[tuple[int, int]]]]:
    """(den, cols) for an invertible Gram matrix G: den is the least integer
    with den * G^-1 integral, and cols[l] lists the nonzero (row, value)
    pairs of column l of den * G^-1."""
    if any(v for k, row in enumerate(gram) for l, v in enumerate(row) if k != l):
        inv = _fraction_inverse(gram)
        den = math.lcm(*(x.denominator for row in inv for x in row))
        return den, [[(k, int(row[l] * den)) for k, row in enumerate(inv) if row[l]]
                     for l in range(len(gram))]
    # an orthogonal basis, as both sp bases are: G^-1 = diag(1 / G[k][k])
    diag = [row[k] for k, row in enumerate(gram)]
    if 0 in diag:
        raise ValueError("singular Gram matrix: the basis is linearly dependent")
    den = math.lcm(*diag)
    return den, [[(l, den // g)] for l, g in enumerate(diag)]


def _fraction_inverse(M: list[list[int]]) -> list[list[Fraction]]:
    d = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(M)]
    for col in range(d):
        piv = next((i for i in range(col, d) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular Gram matrix: the basis is linearly dependent")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(d):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[d:] for row in aug]


def structure_constants(L: LieAlgebraSpec) -> StructureConstants:
    """The bracket table of L; raises NotClosed or JacobiFailure."""
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
    # sc.get(a, b) as an item list for every ordered pair with a bracket,
    # built once: get copies and negates a row on each call with a > b
    rows: dict[tuple[int, int], list] = {}
    for (a, b), row in sc.c.items():
        rows[(a, b)] = list(row.items())
        rows[(b, a)] = [(k, -v) for k, v in row.items()]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc: dict[int, int | Fraction] = {}
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in rows.get((a, b), ()):
                        for l, w in rows.get((m, cc), ()):
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
    dim = basis.dim()
    d_basis = [dict() for _ in range(dim)]
    for (i, j), row in sc.c.items():
        for k, v in row.items():
            d_basis[k][(i, j)] = -v
    out = []
    for k in range(dim):
        target_scaled = basis.labels[k][0] in ("A", "G")
        coeffs = {}
        for (i, j), v in d_basis[k].items():
            c = Coeff({(0, ()): v})
            if (target_scaled and s_ratio is not None
                    and basis.labels[i][0] == "X" and basis.labels[j][0] == "X"):
                c = c * s_ratio
            if not c.is_zero():
                coeffs[(i, j)] = c
        out.append(TwoForm(coeffs))
    return DerivativeRules(out)


def _tx_wedge_x(basis: Basis, i: int, j: int) -> TwoForm:
    """Scalar 2-form  tX^i ^ X^j  =  sum_a X^i_a ^ X^j_a."""
    items = [(basis.x(i, a), basis.x(j, a), ONE) for a in range(1, basis.n + 1)]
    return TwoForm.build(items)


def _x_outer(basis: Basis, i: int, j: int) -> FormMatrix:
    """The n x n matrix of 2-forms  X^i_a ^ X^j_b."""
    n = basis.n
    return FormMatrix(n, [[TwoForm.build([(basis.x(i, a), basis.x(j, b), ONE)])
                           for b in range(1, n + 1)] for a in range(1, n + 1)])


def _gamma_form(basis: Basis, m: int, a: int, b: int) -> OneForm:
    idx, sign = basis.g(m, a, b)
    if idx < 0:
        return OneForm({})
    return OneForm.basis(idx, ONE.scale(sign))


def verify_block_equations(n: int, tamper: tuple[int, int, int] | None = None) -> dict:
    """Recompute the three Maurer-Cartan block families from structure constants.

    Returns a report with exact pass/fail per family; a tampered structure
    constant (i, j, k) serves as a negative control.  A tamper whose target
    k is an X form leaves the three families intact, so a tampered table is
    also Jacobi-checked (report key "jacobi"); the untampered table was
    checked when it was built.
    """
    if not (2 <= n <= MAX_QUERY_N):
        raise ValueError(f"block verification supported for n in 2..{MAX_QUERY_N}")
    sc = _sp_structure(n)
    jacobi_ok = True
    if tamper is not None:
        sc = sc.tampered(*tamper)
        jacobi_ok = jacobi_residual(sc) is None
    basis = Basis(n)
    rules = make_rules(sc, basis)

    def alpha(i: int) -> OneForm:
        return OneForm.basis(basis.a(i), ONE)

    def xo(i: int, j: int) -> FormMatrix:
        return _x_outer(basis, i, j)

    report = {}

    g = {m: FormMatrix(n, [[_gamma_form(basis, m, a, b) for b in range(1, n + 1)]
                           for a in range(1, n + 1)]) for m in range(4)}
    fam1 = (g[0].d(rules) + mat_wedge(g[0], g[0]) - mat_wedge(g[1], g[1])
            - mat_wedge(g[2], g[2]) - mat_wedge(g[3], g[3])
            - xo(0, 0) - xo(1, 1) - xo(2, 2) - xo(3, 3))
    report["dGamma0"] = fam1.is_zero()

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
        fam = (g[mu].d(rules) + mat_wedge(g[mu], g[0]) + mat_wedge(g[0], g[mu])
               - mat_wedge(g[nu], g[eta]) + mat_wedge(g[eta], g[nu])
               - xo(mu, 0) + xo(0, mu) - xo(nu, eta) + xo(eta, nu))
        ok3 = ok3 and fam.is_zero()
    report["dGamma_mu"] = ok3

    if tamper is not None:
        report["jacobi"] = jacobi_ok
    report["all_pass"] = (report["dGamma0"] and report["dalpha"] and report["dGamma_mu"]
                          and jacobi_ok)
    return report


class CurvatureTensor:
    """Riemann tensor R(A,B,C,D) = g(R(e_C,e_D)e_B, e_A) over frame indices 1..4n."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: dict[tuple[int, int, int, int], Fraction]):
        self.n = n
        self.components = components

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


def _hpn_blocks_closed_form(basis: Basis) -> FormMatrix:
    """The displayed HP^n curvature blocks, assembled into one 4n x 4n matrix."""
    n = basis.n

    def xo(i, j):
        return _x_outer(basis, i, j)

    om = FormMatrix.zero(4 * n, two=True)
    diag = xo(0, 0) + xo(1, 1) + xo(2, 2) + xo(3, 3)
    for bi in range(4):
        for a in range(n):
            for b in range(n):
                om.entries[bi * n + a][bi * n + b] = diag.entries[a][b]
    for mu, eta, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        scal = (_tx_wedge_x(basis, mu, 0) + _tx_wedge_x(basis, eta, nu)).scale(ONE.scale(2))
        mixed = xo(mu, 0) - xo(0, mu) + xo(nu, eta) - xo(eta, nu)
        # block (mu, 0) is mixed + scal Id, block (eta, nu) is -mixed + scal Id, and
        # the transposed blocks are their negated transposes
        for bi, bj, sgn in ((mu, 0, 1), (eta, nu, -1)):
            for a in range(n):
                for b in range(n):
                    e = mixed.entries[a][b] if sgn > 0 else -mixed.entries[a][b]
                    if a == b:
                        e = e + scal
                    om.entries[bi * n + a][bj * n + b] = e
                    om.entries[bj * n + b][bi * n + a] = -e
    return om


def hpn_curvature(n: int) -> CurvatureTensor:
    """Riemann tensor of HP^n in the quaternion orthonormal frame.

    The displayed blocks are transcribed (closed form) and recomputed as the
    curvature of the Levi-Civita connection of the X coframe, solved from the
    sp(n+1) structure constants; the recomputed blocks must lie in the
    X-quadratic span and the two must agree exactly, else ValueError.
    """
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    basis = Basis(n)
    m = 4 * n
    # frame index A = 1..4n is X^i_a with i = (A - 1) // n, a = (A - 1) % n + 1
    coframe = [OneForm.basis(basis.x(L // n, L % n + 1), ONE) for L in range(m)]
    index = frame_index([th.coeffs for th in coframe])

    def blocks_to_components(om: FormMatrix) -> dict:
        out = {}
        for A in range(1, m + 1):
            for B in range(1, m + 1):
                for (L, M), v in pairing_table(om.entries[A - 1][B - 1], index).items():
                    x = v.lam_poly().get(0, Fraction(0))
                    if x:
                        out[(A, B, L + 1, M + 1)] = x
        return out

    comps = blocks_to_components(_hpn_blocks_closed_form(basis))
    rules = make_rules(_sp_structure(n), basis)
    om = curvature(levi_civita(coframe, rules), rules)
    for row in om.entries:
        for e in row:
            for (i, j) in e.coeffs:
                if basis.labels[i][0] != "X" or basis.labels[j][0] != "X":
                    raise ValueError("curvature entry leaves the X-quadratic span")
    if comps != blocks_to_components(om):
        raise ValueError("closed-form and Levi-Civita curvature disagree")
    return CurvatureTensor(n, comps)
