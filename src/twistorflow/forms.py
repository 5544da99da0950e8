"""Exterior-calculus kernel over a finite invariant coframe.

Basis 1-forms are indexed by the left-invariant coframe of sp(n+1):
alpha_1, alpha_2, alpha_3, the column vectors X^0..X^3 and the sp(n)-part
matrix forms Gamma~_0..Gamma~_3.  Exterior derivatives of basis forms come
from structure constants; jet symbols carry their own first-order rules.

A sparse map of Coeffs never stores a zero.  Every sum accumulates in
place, in a map under construction: each key holds a Coeff by reference
until a second term arrives, then a raw term map that the ring's kernel
(coeff.mul_into, coeff.add_into) sums into.  _closed turns it into Coeffs
once, when the form is built, dropping each key whose sum is zero.
"""

from __future__ import annotations

from .coeff import (_SYM_GRADES, _UNIT_TERMS, ONE, Coeff, add_into, close, mul_into,
                    symbol_name)

__all__ = [
    "MIN_N",
    "check_n",
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
    "slot_image",
    "specialize",
]


class MissingRule(KeyError):
    """A jet symbol encountered by d has no derivative rule."""


class DimensionMismatch(ValueError):
    pass


def _add_into(acc: dict, key, c: Coeff, s=1) -> None:
    """acc[key] += s c.  A value added first with s = 1 is held by reference;
    a second one turns it into a raw term map that the map owns."""
    t = acc.get(key)
    if t is None:
        if s == 1:
            acc[key] = c
            return
        t = acc[key] = {}
    elif t.__class__ is Coeff:
        t = acc[key] = dict(t.terms)
    add_into(t, c.terms, s)


def _mul_into(acc: dict, key, x: Coeff, y: Coeff, s=1) -> None:
    """acc[key] += s x y; a unit factor adds the other one, as _add_into does."""
    if y.terms == _UNIT_TERMS:
        _add_into(acc, key, x, s)
    elif x.terms == _UNIT_TERMS:
        _add_into(acc, key, y, s)
    else:
        t = acc.get(key)
        if t is None:
            t = acc[key] = {}
        elif t.__class__ is Coeff:
            t = acc[key] = dict(t.terms)
        mul_into(t, x.terms, y.terms, s)


def _closed(acc: dict) -> dict:
    """The Coeffs of a map under construction, without the keys that sum to zero."""
    out = {}
    for key, v in acc.items():
        c = v if v.__class__ is Coeff else close(v)
        if c.terms:
            out[key] = c
    return out


def _mul_pair(acc: dict, i: int, j: int, x: Coeff, y: Coeff) -> None:
    """Add x y e^i ^ e^j to a 2-form map under construction, keys i < j."""
    if i < j:
        _mul_into(acc, (i, j), x, y)
    elif i > j:
        _mul_into(acc, (j, i), x, y, -1)


def _wedge_into(acc: dict, a: "OneForm", b: "OneForm", keep: tuple | None = None) -> None:
    """Add a ^ b to a 2-form map under construction; with keep, only its
    components with an index in keep."""
    if keep is None:
        for i, ci in a.coeffs.items():
            for j, cj in b.coeffs.items():
                _mul_pair(acc, i, j, ci, cj)
        return
    for i in keep:
        ci = a.coeffs.get(i)
        if ci is not None:
            for j, cj in b.coeffs.items():
                _mul_pair(acc, i, j, ci, cj)
    for j in keep:
        cj = b.coeffs.get(j)
        if cj is not None:
            for i, ci in a.coeffs.items():
                if i not in keep:
                    _mul_pair(acc, i, j, ci, cj)


# the least quaternionic dimension n of the paper's setting, checked by
# check_n alone (flow keeps its own check, since it imports no engine module)
MIN_N = 2


def check_n(n: int) -> None:
    """Raise ValueError unless n lies in the paper's setting, n >= MIN_N."""
    if n < MIN_N:
        raise ValueError("paper setting requires n > 1")


class Basis:
    """Index bookkeeping for the sp(n+1) invariant coframe.

    Labels, in declaration order:
      ("A", i)        i = 1, 2, 3
      ("X", i, a)     i = 0..3, a = 1..n
      ("G", 0, a, b)  a < b   (antisymmetric block)
      ("G", m, a, b)  m = 1..3, a <= b (symmetric blocks)
    """

    def __init__(self, n: int):
        check_n(n)
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
        acc = dict(self.coeffs)
        for key, c in other.coeffs.items():
            _add_into(acc, key, c)
        return type(self)(_closed(acc))

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
        acc: dict = {}
        for idx, c in items:
            if idx >= 0:
                _add_into(acc, idx, c)
        return OneForm(_closed(acc))

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
        acc: dict = {}
        for i, j, c in items:
            if 0 <= i < j:
                _add_into(acc, (i, j), c)
            elif 0 <= j < i:
                _add_into(acc, (j, i), c, -1)
        return TwoForm(_closed(acc))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    acc: dict = {}
    _wedge_into(acc, a, b)
    return TwoForm(_closed(acc))


def slot_image(w: TwoForm, expansion: list[OneForm]) -> TwoForm:
    """w written over the slots of a coframe, with keys L < M.

    expansion[i] is ambient basis form i over the slots, and is empty for a
    form the coframe does not span.  The (L, M) component is w(e_L, e_M) over
    the frame dual to the coframe, which pairs an empty form to zero.
    """
    acc: dict = {}
    for (i, j), c in w.coeffs.items():
        a, b = expansion[i].coeffs, expansion[j].coeffs
        if a and b:
            # c a ^ b = -c b ^ a: c multiplies the shorter expansion
            if len(a) > len(b):
                a, b, c = b, a, -c
            for L, aL in a.items():
                ca = aL * c
                for M, bM in b.items():
                    _mul_pair(acc, L, M, ca, bM)
    return TwoForm(_closed(acc))


class DerivativeRules:
    """d on basis forms (from structure constants) plus jet-symbol rules.

    The forms are indexed 0..len(d_basis)-1; d_basis[k] is d e^k.
    """

    __slots__ = ("d_basis", "jet_rules")

    def __init__(self, d_basis: list[TwoForm], jet_rules: dict[int, OneForm] | None = None):
        self.d_basis = d_basis
        self.jet_rules = {} if jet_rules is None else jet_rules

    def with_jets(self, rules: dict[int, OneForm]) -> "DerivativeRules":
        """These rules plus the jet rules keyed by symbol id; an id already
        present gets the new rule."""
        return DerivativeRules(self.d_basis, {**self.jet_rules, **rules})

    def d_coeff(self, c: Coeff) -> OneForm:
        """d of a scalar: Leibniz over grade-1 jet factors (grade-0 are constants)."""
        acc: dict = {}
        for coeffs, factor in self._jet_factors(c):
            for idx, rc in coeffs.items():
                _mul_into(acc, idx, rc, factor)
        return OneForm(_closed(acc))

    def _jet_factors(self, c: Coeff):
        """Yield (rule map of j, the term with j taken out) for each grade-1
        jet factor j of each term of c: d c is the sum of their products."""
        for (k, mono), v in c.terms.items():
            for pos, sid in enumerate(mono):
                if not _SYM_GRADES[sid]:
                    continue
                rule = self.jet_rules.get(sid)
                if rule is None:
                    raise MissingRule(symbol_name(sid))
                yield rule.coeffs, Coeff({(k, mono[:pos] + mono[pos + 1:]): v})


def _d_term_into(acc: dict, rules: DerivativeRules, idx: int, c1: Coeff | None,
                 c0: Coeff | None, keep: tuple | None = None) -> None:
    """Add d(c1) ^ e^idx + c0 de^idx to a 2-form map under construction;
    c1 = c0 = c gives d(c e^idx).

    With keep, only the components with an index in keep are added: then
    d(c1) is read only at the indices in keep unless idx is one of them.
    """
    if c1 is not None and c1.terms:
        only = None if keep is None or idx in keep else keep
        for coeffs, factor in rules._jet_factors(c1):
            for m in (coeffs if only is None else only):
                rc = coeffs.get(m)
                if rc is not None:
                    _mul_pair(acc, m, idx, rc, factor)
    if c0 is not None and c0.terms:
        for key, v in rules.d_basis[idx].coeffs.items():
            if keep is None or key[0] in keep or key[1] in keep:
                _mul_into(acc, key, v, c0)


def exterior_derivative(a: OneForm, rules: DerivativeRules) -> TwoForm:
    acc: dict = {}
    for idx, c in a.coeffs.items():
        _d_term_into(acc, rules, idx, c, c)
    return TwoForm(_closed(acc))


def _sorted_triple(i: int, j: int, k: int) -> tuple[tuple[int, int, int], int]:
    """(i, j, k) in ascending order, with the sign of the sorting
    permutation: e^i ^ e^j ^ e^k = sign e^a ^ e^b ^ e^c.  The sign is 0
    when two indices are equal."""
    s = 1
    if i > j:
        i, j, s = j, i, -s
    if j > k:
        j, k, s = k, j, -s
        if i > j:
            i, j, s = j, i, -s
    return (i, j, k), (s if i != j != k else 0)


def d2_residual(idx: int, rules: DerivativeRules) -> dict[tuple[int, int, int], Coeff]:
    """Degree-3 residual of d(d e^idx), as a map over sorted index triples.

    No public 3-form type: this exists only to check d^2 = 0.  It is the
    ring form of liealg.jacobi_residual: on Maurer-Cartan rules it vanishes
    exactly when the structure constants satisfy the Jacobi identity.
    """
    acc: dict[tuple[int, int, int], Coeff | dict] = {}

    def add(i: int, j: int, k: int, x: Coeff, y: Coeff, s: int) -> None:
        key, sign = _sorted_triple(i, j, k)
        if sign:
            _mul_into(acc, key, x, y, s * sign)

    dw = rules.d_basis[idx]
    for (i, j), c in dw.coeffs.items():
        for m, cm in rules.d_coeff(c).coeffs.items():
            add(m, i, j, cm, ONE, 1)
        for (p, q), cp in rules.d_basis[i].coeffs.items():
            add(p, q, j, cp, c, 1)
        for (p, q), cp in rules.d_basis[j].coeffs.items():
            add(i, p, q, cp, c, -1)
    return _closed(acc)


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
            acc: dict = {}
            for k in range(A.dim):
                _wedge_into(acc, A.entries[i][k], B.entries[k][j])
            row.append(TwoForm(_closed(acc)))
        out.append(row)
    return FormMatrix(A.dim, out)


def _grade0(f):
    """The grade-0 part of a form: f itself when it has no other part."""
    for c in f.coeffs.values():
        for _, mono in c.terms:
            for sid in mono:
                if _SYM_GRADES[sid]:
                    return f.grade_part(0)
    return f


def _split01(c: Coeff) -> tuple[Coeff, Coeff]:
    """The grade-0 and grade-1 parts of c, in one pass; c itself is the part
    that holds all of it."""
    t0: dict = {}
    t1: dict = {}
    for key, v in c.terms.items():
        g = 0
        for sid in key[1]:
            g += _SYM_GRADES[sid]
        if not g:
            t0[key] = v
        elif g == 1:
            t1[key] = v
    n = len(c.terms)
    return (c if len(t0) == n else Coeff(t0)), (c if len(t1) == n else Coeff(t1))


def _curvature_entries(gamma: FormMatrix, rules: DerivativeRules, touching: bool):
    """Yield (i, j, 2-form map of Omega^i_j) for i < j, as curvature defines it.

    Each Gamma coefficient is split once into its grade-0 and grade-1 parts.
    With touching, each map holds only the components with an index in
    {i, j}: over unit frames, those are all a Ricci contraction reads.
    """
    m = gamma.dim
    rules0 = DerivativeRules([_grade0(w) for w in rules.d_basis],
                             {sid: _grade0(r) for sid, r in rules.jet_rules.items()})
    g0 = [[OneForm({}) for _ in range(m)] for _ in range(m)]
    g1: list[list[dict[int, Coeff]]] = [[{} for _ in range(m)] for _ in range(m)]
    for i, row in enumerate(gamma.entries):
        for j, e in enumerate(row):
            for idx, c in e.coeffs.items():
                c0, c1 = _split01(c)
                if c0.terms:
                    g0[i][j].coeffs[idx] = c0
                if c1.terms:
                    g1[i][j][idx] = c1
    for i in range(m):
        for j in range(i + 1, m):
            keep = (i, j) if touching else None
            acc: dict = {}
            g0ij, g1ij = g0[i][j].coeffs, g1[i][j]
            for idx in gamma.entries[i][j].coeffs:
                _d_term_into(acc, rules0, idx, g1ij.get(idx), g0ij.get(idx), keep)
            for k in range(m):
                _wedge_into(acc, g0[i][k], g0[k][j], keep)
            yield i, j, _closed(acc)


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
