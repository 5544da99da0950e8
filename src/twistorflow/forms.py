"""Exterior-calculus kernel over a finite invariant coframe.

Basis 1-forms are indexed by the left-invariant coframe of sp(n+1):
alpha_1, alpha_2, alpha_3, the column vectors X^0..X^3 and the sp(n)-part
matrix forms Gamma~_0..Gamma~_3.  Exterior derivatives of basis forms come
from structure constants; jet symbols carry their own first-order rules.

A sparse map of Coeffs never stores a zero.  Every sum into one goes
through _add_into (or _add_pair and _wedge_into, which call it), and a sum
of many terms accumulates into one dict rather than adding forms pairwise.
"""

from __future__ import annotations

from .coeff import ZERO, Coeff, JetSymbol, jet_grade, symbol_name

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
    "curvature",
    "d2_residual",
    "eval_pair",
    "frame_index",
    "pairing_table",
    "specialize",
]


class MissingRule(KeyError):
    """A jet symbol encountered by d has no derivative rule."""


class DimensionMismatch(ValueError):
    pass


def _add_into(acc: dict, key, c: Coeff) -> None:
    """acc[key] += c, dropping the key when the sum is zero."""
    if not c.terms:
        return
    prev = acc.get(key)
    if prev is None:
        acc[key] = c
        return
    c = prev + c
    if c.terms:
        acc[key] = c
    else:
        del acc[key]


def _add_pair(acc: dict, i: int, j: int, c: Coeff) -> None:
    """Add c e^i ^ e^j to a 2-form map with keys i < j."""
    if i < j:
        _add_into(acc, (i, j), c)
    elif i > j:
        _add_into(acc, (j, i), -c)


def _wedge_into(acc: dict, a: "OneForm", b: "OneForm", keep: tuple | None = None) -> None:
    """Add a ^ b to a 2-form map; with keep, only its components with an index in keep."""
    if keep is None:
        for i, ci in a.coeffs.items():
            for j, cj in b.coeffs.items():
                if i != j:
                    _add_pair(acc, i, j, ci * cj)
        return
    for i in keep:
        ci = a.coeffs.get(i)
        if ci is not None:
            for j, cj in b.coeffs.items():
                if i != j:
                    _add_pair(acc, i, j, ci * cj)
    for j in keep:
        cj = b.coeffs.get(j)
        if cj is not None:
            for i, ci in a.coeffs.items():
                if i != j and i not in keep:
                    _add_pair(acc, i, j, ci * cj)


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


class _SparseForm:
    """A sparse map coeffs of nonzero Coeffs, and the arithmetic that OneForm
    and TwoForm share over it.

    Two forms are equal when their maps are; __eq__ returns NotImplemented
    across the two types, and a form is not hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {} if coeffs is None else coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            _add_into(out, key, c)
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Coeff):
        if c.is_zero():
            return type(self)({})
        out = {}
        for k, v in self.coeffs.items():
            nv = v * c
            if not nv.is_zero():
                out[k] = nv
        return type(self)(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def grade_part(self, grade: int):
        out = {}
        for k, c in self.coeffs.items():
            g = c.grade_part(grade)
            if not g.is_zero():
                out[k] = g
        return type(self)(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs


class OneForm(_SparseForm):
    """A 1-form: coeffs maps a basis index i to the Coeff of e^i."""

    __slots__ = ()

    @staticmethod
    def build(items) -> "OneForm":
        out: dict[int, Coeff] = {}
        for idx, c in items:
            if idx >= 0:
                _add_into(out, idx, c)
        return OneForm(out)

    @staticmethod
    def basis(idx: int, coeff: Coeff) -> "OneForm":
        if coeff.is_zero():
            return OneForm({})
        return OneForm({idx: coeff})


class TwoForm(_SparseForm):
    """A 2-form: coeffs maps basis indices (i, j), i < j, to the Coeff of e^i ^ e^j."""

    __slots__ = ()

    @staticmethod
    def build(items) -> "TwoForm":
        """Accumulate (i, j, Coeff) terms, normalizing to i < j keys."""
        out: dict[tuple[int, int], Coeff] = {}
        for i, j, c in items:
            if i >= 0 and j >= 0:
                _add_pair(out, i, j, c)
        return TwoForm(out)


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    acc: dict[tuple[int, int], Coeff] = {}
    _wedge_into(acc, a, b)
    return TwoForm(acc)


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


def frame_index(frames: list[dict]) -> dict[int, list[tuple[int, Coeff]]]:
    """Invert a list of frames (basis-index -> Coeff pairings) to basis index
    -> [(slot, value)], the index pairing_table reads."""
    index: dict[int, list[tuple[int, Coeff]]] = {}
    for slot, f in enumerate(frames):
        for i, v in f.items():
            index.setdefault(i, []).append((slot, v))
    return index


def pairing_table(w: TwoForm,
                  index: dict[int, list[tuple[int, Coeff]]]) -> dict[tuple[int, int], Coeff]:
    """Every nonzero w(e_L, e_M) over the frames of a frame_index, as
    {(L, M): Coeff}, in one pass over w; equal to eval_pair pair by pair.

    A term c e^i ^ e^j adds c u_i v_j to (L, M) and its negative to (M, L)
    for each frame L pairing with e^i and M with e^j.
    """
    out: dict[tuple[int, int], Coeff] = {}
    for (i, j), c in w.coeffs.items():
        fi, fj = index.get(i), index.get(j)
        if fi is None or fj is None:
            continue
        for L, ui in fi:
            cu = c * ui
            for M, vj in fj:
                if L != M:
                    t = cu * vj
                    _add_into(out, (L, M), t)
                    _add_into(out, (M, L), -t)
    return out


class DerivativeRules:
    """d on basis forms (from structure constants) plus jet-symbol rules.

    The forms are indexed 0..len(d_basis)-1; d_basis[k] is d e^k.
    """

    __slots__ = ("d_basis", "jet_rules")

    def __init__(self, d_basis: list[TwoForm], jet_rules: dict[int, OneForm] | None = None):
        self.d_basis = d_basis
        self.jet_rules = {} if jet_rules is None else jet_rules

    def with_jets(self, rules: dict[JetSymbol, OneForm]) -> "DerivativeRules":
        jr = dict(self.jet_rules)
        for sym, rule in rules.items():
            jr[sym.sid] = rule
        return DerivativeRules(self.d_basis, jr)

    def d_coeff(self, c: Coeff) -> OneForm:
        """d of a scalar: Leibniz over grade-1 jet factors (grade-0 are constants)."""
        return OneForm(self._d_coeff_map(c, None))

    def _d_coeff_map(self, c: Coeff, only: tuple | None) -> dict[int, Coeff]:
        """The map of d_coeff(c), or only its components at the indices in only."""
        acc: dict[int, Coeff] = {}
        for (k, mono), v in c.terms.items():
            for pos, sid in enumerate(mono):
                if jet_grade(sid) == 0:
                    continue
                rule = self.jet_rules.get(sid)
                if rule is None:
                    raise MissingRule(symbol_name(sid))
                factor = Coeff({(k, mono[:pos] + mono[pos + 1:]): v})
                coeffs = rule.coeffs
                for idx in (coeffs if only is None else only):
                    rc = coeffs.get(idx)
                    if rc is not None:
                        _add_into(acc, idx, rc * factor)
        return acc


def _d_term_into(acc: dict, rules: DerivativeRules, idx: int, c1: Coeff, c0: Coeff | None,
                 keep: tuple | None = None) -> None:
    """Add d(c1) ^ e^idx + c0 de^idx to a 2-form map; c1 = c0 = c gives d(c e^idx).

    With keep, only the components with an index in keep are added: then
    d(c1) is read only at the indices in keep unless idx is one of them.
    """
    if c1.terms:
        only = None if keep is None or idx in keep else keep
        for m, cm in rules._d_coeff_map(c1, only).items():
            _add_pair(acc, m, idx, cm)
    if c0 is not None and c0.terms:
        for key, v in rules.d_basis[idx].coeffs.items():
            if keep is None or key[0] in keep or key[1] in keep:
                _add_into(acc, key, v * c0)


def exterior_derivative(a: OneForm, rules: DerivativeRules) -> TwoForm:
    acc: dict[tuple[int, int], Coeff] = {}
    for idx, c in a.coeffs.items():
        _d_term_into(acc, rules, idx, c, c)
    return TwoForm(acc)


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
        _add_into(acc, (perm[0][0], perm[1][0], perm[2][0]), c if sign == 1 else -c)

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


class FormMatrix:
    """Square matrix of OneForms or TwoForms; matrices of equal dim and
    entries compare equal."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: list[list]):
        self.dim = dim
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.entries) == (other.dim, other.entries)

    @staticmethod
    def zero(dim: int, two: bool = False) -> "FormMatrix":
        mk = TwoForm if two else OneForm
        return FormMatrix(dim, [[mk({}) for _ in range(dim)] for _ in range(dim)])

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch
        return FormMatrix(self.dim,
                          [[self.entries[i][j] + other.entries[i][j] for j in range(self.dim)]
                           for i in range(self.dim)])

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch
        return FormMatrix(self.dim,
                          [[self.entries[i][j] - other.entries[i][j] for j in range(self.dim)]
                           for i in range(self.dim)])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

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
                            for j in range(self.dim)] for i in range(self.dim)])


def mat_wedge(A: FormMatrix, B: FormMatrix) -> FormMatrix:
    if A.dim != B.dim:
        raise DimensionMismatch(f"{A.dim} != {B.dim}")
    out = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc: dict[tuple[int, int], Coeff] = {}
            for k in range(A.dim):
                _wedge_into(acc, A.entries[i][k], B.entries[k][j])
            row.append(TwoForm(acc))
        out.append(row)
    return FormMatrix(A.dim, out)


def _curvature_entries(gamma: FormMatrix, rules: DerivativeRules, touching: bool):
    """Yield (i, j, 2-form map of Omega^i_j) for i < j, as curvature defines it.

    With touching, each map holds only the components with an index in
    {i, j}: over unit frames, those are all a Ricci contraction reads.
    """
    m = gamma.dim
    rules0 = DerivativeRules([w.grade_part(0) for w in rules.d_basis],
                             {sid: r.grade_part(0) for sid, r in rules.jet_rules.items()})
    g0 = [[e.grade_part(0) for e in row] for row in gamma.entries]
    for i in range(m):
        for j in range(i + 1, m):
            keep = (i, j) if touching else None
            acc: dict[tuple[int, int], Coeff] = {}
            g0ij = g0[i][j].coeffs
            for idx, c in gamma.entries[i][j].coeffs.items():
                _d_term_into(acc, rules0, idx, c.grade_part(1), g0ij.get(idx), keep)
            for k in range(m):
                _wedge_into(acc, g0[i][k], g0[k][j], keep)
            yield i, j, acc


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
    out = FormMatrix.zero(gamma.dim, two=True)
    for i, j, acc in _curvature_entries(gamma, rules, touching=False):
        out.entries[i][j] = TwoForm(acc)
        out.entries[j][i] = -out.entries[i][j]
    return out


def specialize(x, mu):
    """Coefficient-wise Coeff.specialize of a OneForm, TwoForm or FormMatrix."""
    if isinstance(x, FormMatrix):
        return FormMatrix(x.dim, [[_specialize_form(e, mu) for e in row] for row in x.entries])
    return _specialize_form(x, mu)


def _specialize_form(f, mu):
    if isinstance(f, OneForm):
        return OneForm.build((i, c.specialize(mu)) for i, c in f.coeffs.items())
    return TwoForm.build((i, j, c.specialize(mu)) for (i, j), c in f.coeffs.items())
