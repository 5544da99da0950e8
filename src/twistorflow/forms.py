"""Exterior-calculus kernel over a finite invariant coframe.

Basis 1-forms are indexed by the left-invariant coframe of sp(n+1):
alpha_1, alpha_2, alpha_3, the column vectors X^0..X^3 and the sp(n)-part
matrix forms Gamma~_0..Gamma~_3.  Exterior derivatives of basis forms come
from structure constants; jet symbols carry their own first-order rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeff import ONE, ZERO, Coeff, JetSymbol, jet_grade, symbol_name

__all__ = [
    "Basis",
    "OneForm",
    "TwoForm",
    "FormMatrix",
    "DerivativeRules",
    "MissingRule",
    "DimensionMismatch",
    "wedge",
    "exterior_derivative",
    "mat_wedge",
    "eval_pair",
    "eval_one",
    "specialize",
]


class MissingRule(KeyError):
    """A jet symbol encountered by d has no derivative rule."""


class DimensionMismatch(ValueError):
    pass


class Basis:
    """Index bookkeeping for the sp(n+1) invariant coframe.

    Labels, in declaration order:
      ("A", i)        i = 1, 2, 3
      ("X", i, a)     i = 0..3, a = 1..n
      ("G", 0, a, b)  a < b   (antisymmetric block)
      ("G", m, a, b)  m = 1..3, a <= b (symmetric blocks)
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("quaternionic dimension must be >= 2")
        self.n = n
        labels: list[tuple] = [("A", 1), ("A", 2), ("A", 3)]
        labels += [("X", i, a) for i in range(4) for a in range(1, n + 1)]
        labels += [("G", 0, a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        for m in (1, 2, 3):
            labels += [("G", m, a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        assert len(labels) == (n + 1) * (2 * n + 3)

    def dim(self) -> int:
        return len(self.labels)

    def a(self, i: int) -> int:
        return self.index[("A", i)]

    def x(self, i: int, a: int) -> int:
        return self.index[("X", i, a)]

    def g(self, m: int, a: int, b: int) -> tuple[int, int]:
        """Index and sign of the (a,b) entry of the Gamma~_m matrix form.

        Gamma~_0 is antisymmetric (diagonal entries are zero, flagged by
        index -1); Gamma~_1..3 are symmetric.
        """
        if m == 0:
            if a == b:
                return -1, 0
            if a < b:
                return self.index[("G", 0, a, b)], 1
            return self.index[("G", 0, b, a)], -1
        if a <= b:
            return self.index[("G", m, a, b)], 1
        return self.index[("G", m, b, a)], 1


@dataclass(frozen=True)
class OneForm:
    coeffs: dict[int, Coeff] = field(default_factory=dict)

    @staticmethod
    def build(items) -> "OneForm":
        out: dict[int, Coeff] = {}
        for idx, c in items:
            if idx < 0 or c.is_zero():
                continue
            prev = out.get(idx)
            nc = c if prev is None else prev + c
            if nc.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = nc
        return OneForm(out)

    @staticmethod
    def basis(idx: int, coeff: Coeff) -> "OneForm":
        if coeff.is_zero():
            return OneForm({})
        return OneForm({idx: coeff})

    def __add__(self, other: "OneForm") -> "OneForm":
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            nc = out.get(idx)
            nc = c if nc is None else nc + c
            if nc.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = nc
        return OneForm(out)

    def __neg__(self) -> "OneForm":
        return OneForm({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "OneForm") -> "OneForm":
        return self + (-other)

    def scale(self, c: Coeff) -> "OneForm":
        if c.is_zero():
            return OneForm({})
        out = {}
        for i, v in self.coeffs.items():
            nv = v * c
            if not nv.is_zero():
                out[i] = nv
        return OneForm(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def grade_part(self, grade: int) -> "OneForm":
        out = {}
        for i, c in self.coeffs.items():
            g = c.grade_part(grade)
            if not g.is_zero():
                out[i] = g
        return OneForm(out)

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for c in self.coeffs.values():
            out |= c.symbols()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.coeffs == other.coeffs


@dataclass(frozen=True)
class TwoForm:
    coeffs: dict[tuple[int, int], Coeff] = field(default_factory=dict)

    @staticmethod
    def build(items) -> "TwoForm":
        """Accumulate (i, j, Coeff) terms, normalizing to i < j keys."""
        out: dict[tuple[int, int], Coeff] = {}
        for i, j, c in items:
            if i < 0 or j < 0 or c.is_zero():
                continue
            if i == j:
                continue
            if i > j:
                i, j, c = j, i, -c
            key = (i, j)
            prev = out.get(key)
            nc = c if prev is None else prev + c
            if nc.is_zero():
                out.pop(key, None)
            else:
                out[key] = nc
        return TwoForm(out)

    def __add__(self, other: "TwoForm") -> "TwoForm":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            nc = out.get(key)
            nc = c if nc is None else nc + c
            if nc.is_zero():
                out.pop(key, None)
            else:
                out[key] = nc
        return TwoForm(out)

    def __neg__(self) -> "TwoForm":
        return TwoForm({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return self + (-other)

    def scale(self, c: Coeff) -> "TwoForm":
        if c.is_zero():
            return TwoForm({})
        out = {}
        for k, v in self.coeffs.items():
            nv = v * c
            if not nv.is_zero():
                out[k] = nv
        return TwoForm(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def grade_part(self, grade: int) -> "TwoForm":
        out = {}
        for k, c in self.coeffs.items():
            g = c.grade_part(grade)
            if not g.is_zero():
                out[k] = g
        return TwoForm(out)

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for c in self.coeffs.values():
            out |= c.symbols()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoForm):
            return NotImplemented
        return self.coeffs == other.coeffs


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    items = []
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            if i == j:
                continue
            items.append((i, j, ci * cj))
    return TwoForm.build(items)


def eval_one(a: OneForm, u: dict) -> Coeff:
    total = None
    for i, c in a.coeffs.items():
        uv = u.get(i)
        if uv is None:
            continue
        t = c * uv
        total = t if total is None else total + t
    return ZERO if total is None else total


def eval_pair(w: TwoForm, u: dict, v: dict) -> Coeff:
    """w(u, v) for dual vectors given as basis-index -> Coeff pairings."""
    total = None
    for (i, j), c in w.coeffs.items():
        ui, uj = u.get(i), u.get(j)
        vi, vj = v.get(i), v.get(j)
        if ui is not None and vj is not None:
            t = c * ui * vj
            total = t if total is None else total + t
        if uj is not None and vi is not None:
            t = c * uj * vi
            total = -t if total is None else total - t
    return ZERO if total is None else total


@dataclass
class DerivativeRules:
    """d on basis forms (from structure constants) plus jet-symbol rules."""

    basis: Basis
    d_basis: list[TwoForm]
    jet_rules: dict[int, OneForm] = field(default_factory=dict)

    def with_jets(self, rules: dict[JetSymbol, OneForm]) -> "DerivativeRules":
        jr = dict(self.jet_rules)
        for sym, rule in rules.items():
            jr[sym.sid] = rule
        return DerivativeRules(self.basis, self.d_basis, jr)

    def d_coeff(self, c: Coeff) -> OneForm:
        """d of a scalar: Leibniz over grade-1 jet factors (grade-0 are constants)."""
        total = OneForm({})
        for (k, mono), v in c.terms.items():
            for pos, sid in enumerate(mono):
                if jet_grade(sid) == 0:
                    continue
                rule = self.jet_rules.get(sid)
                if rule is None:
                    raise MissingRule(symbol_name(sid))
                rest = mono[:pos] + mono[pos + 1:]
                factor = Coeff({(k, rest): v})
                total = total + rule.scale(factor)
        return total


def exterior_derivative(a: OneForm, rules: DerivativeRules) -> TwoForm:
    total = TwoForm({})
    for idx, c in a.coeffs.items():
        dc = rules.d_coeff(c)
        if not dc.is_zero():
            total = total + wedge(dc, OneForm.basis(idx, ONE))
        db = rules.d_basis[idx]
        if not db.is_zero():
            total = total + db.scale(c)
    return total


def d2_residual(idx: int, rules: DerivativeRules) -> dict[tuple[int, int, int], Coeff]:
    """Degree-3 residual of d(d e^idx), as a map over sorted index triples.

    No public 3-form type: this exists only to check d^2 = 0, which holds
    exactly when the structure constants satisfy the Jacobi identity.
    """
    acc: dict[tuple[int, int, int], Coeff] = {}

    def add(i: int, j: int, k: int, c: Coeff) -> None:
        if c.is_zero() or len({i, j, k}) < 3:
            return
        perm = sorted(((i, 0), (j, 1), (k, 2)))
        sign = 1
        order = [p[1] for p in perm]
        # parity of the permutation of three items
        if order in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
            sign = -1
        key = (perm[0][0], perm[1][0], perm[2][0])
        cc = c if sign == 1 else -c
        prev = acc.get(key)
        nc = cc if prev is None else prev + cc
        if nc.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = nc

    dw = rules.d_basis[idx]
    for (i, j), c in dw.coeffs.items():
        dc = rules.d_coeff(c)
        for m, cm in dc.coeffs.items():
            add(m, i, j, cm)
        for (p, q), cp in rules.d_basis[i].coeffs.items():
            add(p, q, j, cp * c)
        for (p, q), cp in rules.d_basis[j].coeffs.items():
            add(i, p, q, -(cp * c))
    return acc


@dataclass
class FormMatrix:
    """Square matrix of OneForms or TwoForms with named row/column blocks."""

    dim: int
    entries: list[list]
    block_map: dict[str, list[int]] = field(default_factory=dict)

    @staticmethod
    def zero(dim: int, two: bool = False, block_map=None) -> "FormMatrix":
        mk = TwoForm if two else OneForm
        return FormMatrix(dim, [[mk({}) for _ in range(dim)] for _ in range(dim)],
                          block_map or {})

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch
        return FormMatrix(self.dim,
                          [[self.entries[i][j] + other.entries[i][j] for j in range(self.dim)]
                           for i in range(self.dim)], self.block_map)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch
        return FormMatrix(self.dim,
                          [[self.entries[i][j] - other.entries[i][j] for j in range(self.dim)]
                           for i in range(self.dim)], self.block_map)

    def is_skew(self) -> bool:
        for i in range(self.dim):
            if not self.entries[i][i].is_zero():
                return False
            for j in range(i + 1, self.dim):
                if not (self.entries[i][j] + self.entries[j][i]).is_zero():
                    return False
        return True

    def d(self, rules: DerivativeRules) -> "FormMatrix":
        return FormMatrix(self.dim,
                          [[exterior_derivative(self.entries[i][j], rules)
                            for j in range(self.dim)] for i in range(self.dim)],
                          self.block_map)

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for row in self.entries:
            for e in row:
                out |= e.symbols()
        return out


def mat_wedge(A: FormMatrix, B: FormMatrix) -> FormMatrix:
    if A.dim != B.dim:
        raise DimensionMismatch(f"{A.dim} != {B.dim}")
    out = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = TwoForm({})
            for k in range(A.dim):
                a = A.entries[i][k]
                b = B.entries[k][j]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + wedge(a, b)
            row.append(acc)
        out.append(row)
    return FormMatrix(A.dim, out, A.block_map)


def curvature(gamma: FormMatrix, rules: DerivativeRules) -> FormMatrix:
    """Curvature at the base point: the grade-0 part of d Gamma + Gamma ^ Gamma.

    Every rule coefficient has grade >= 0, so d lowers the jet grade by at
    most one and a product never lowers it.  The grade-0 part of d(c e) is
    therefore d(c_1) ^ e + c_0 de under the rules truncated to grade 0, where
    c_g is the grade-g part of c, and that of Gamma ^ Gamma is
    Gamma_0 ^ Gamma_0.  Gamma is skew, so Omega is too: only the entries
    i < j are computed, and the rest are mirrored.  Without jets (the
    canonical family) this is the whole curvature.
    """
    m = gamma.dim
    rules0 = DerivativeRules(rules.basis, [w.grade_part(0) for w in rules.d_basis],
                             {sid: r.grade_part(0) for sid, r in rules.jet_rules.items()})
    g0 = [[e.grade_part(0) for e in row] for row in gamma.entries]
    out = FormMatrix.zero(m, two=True, block_map=gamma.block_map)
    for i in range(m):
        for j in range(i + 1, m):
            acc = TwoForm({})
            for idx, c in gamma.entries[i][j].coeffs.items():
                dc = rules0.d_coeff(c.grade_part(1))
                if not dc.is_zero():
                    acc = acc + wedge(dc, OneForm.basis(idx, ONE))
            for idx, c in g0[i][j].coeffs.items():
                acc = acc + rules0.d_basis[idx].scale(c)
            for k in range(m):
                if not (g0[i][k].is_zero() or g0[k][j].is_zero()):
                    acc = acc + wedge(g0[i][k], g0[k][j])
            out.entries[i][j] = acc
            out.entries[j][i] = -acc
    return out


def specialize(x, mu):
    """Coefficient-wise Coeff.specialize of a OneForm, TwoForm or FormMatrix."""
    if isinstance(x, FormMatrix):
        return FormMatrix(x.dim, [[_specialize_form(e, mu) for e in row] for row in x.entries],
                          x.block_map)
    return _specialize_form(x, mu)


def _specialize_form(f, mu):
    if isinstance(f, OneForm):
        return OneForm.build((i, c.specialize(mu)) for i, c in f.coeffs.items())
    return TwoForm.build((i, j, c.specialize(mu)) for (i, j), c in f.coeffs.items())
