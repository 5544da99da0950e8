"""Curvature at the base point from coframe structure functions.

The exterior derivatives of an orthonormal coframe are rewritten over the
coframe itself with germ coefficients: exact expansions for the forms the
coframe spans, and value-at-the-point plus fresh grade-1 jets for the
remaining invariant forms (alpha_2 and the Gamma~ blocks).  The derivative
rules of those jets are pinned, up to symmetric-part unknowns, by the known
Maurer-Cartan differentials; the Levi-Civita connection and curvature then
follow from the standard orthonormal-coframe formulas, and every formal
unknown must cancel from any physical output.
"""

from __future__ import annotations

from functools import cached_property

from .coeff import ONE, ZERO, Coeff, jet_symbol
from .connections import coframe_expansion, levi_civita, ricci_from_gamma
from .forms import (DerivativeRules, FormMatrix, OneForm, _closed, _mul_into, curvature,
                    exterior_derivative, slot_image)

__all__ = ["PointGeometry", "point_geometry"]


def _label_str(label: tuple) -> str:
    return ",".join(str(x) for x in label)


class PointGeometry:
    """Coframe-coordinate model of a metric germ at the base point.

    Every form is written over the coframe slots 0..m-1: rules holds d of
    each slot at every grade, and the jet rules (of the expansion jets and
    the ambient jets) exact at grade 0 only, the one part the curvature at
    the point reads; coframe[K] is e^K, so coframe is also the identity
    expansion of the slot basis that connections.ricci_matrix reads.

    omega is the curvature at the point (the grade-0 part of the second
    structure equation), not the full curvature germ.  It is lazy: computed
    on first read, then cached, and so is ricci().  ricci() never reads
    omega; it contracts Gamma over the unit slot frames directly
    (connections.ricci_from_gamma), which computes of each Omega^i_j (i < j)
    only the components with an index in {i, j}.  A PointGeometry returned
    by zmetric.z_geometry is a cached object shared by every caller and must
    not be mutated, nor may the matrix ricci() returns.
    """

    def __init__(self, rules: DerivativeRules, coframe: list[OneForm], gamma: FormMatrix,
                 extras_expansion: dict[int, OneForm]):
        self.rules = rules
        self.coframe = coframe
        self.gamma = gamma
        self.extras_expansion = extras_expansion

    @cached_property
    def omega(self) -> FormMatrix:
        return curvature(self.gamma, self.rules)

    def ricci(self) -> list[list[Coeff]]:
        return self._ricci

    @cached_property
    def _ricci(self) -> list[list[Coeff]]:
        return ricci_from_gamma(self.gamma, self.rules)


def point_geometry(ambient_labels: list[tuple], ambient_coframe: list[OneForm],
                   ambient_rules: DerivativeRules,
                   values: dict[int, dict[int, Coeff]]) -> PointGeometry:
    """Build connection and curvature of the coframe metric at the point.

    ambient_labels[i] labels ambient basis form i; the fresh jets of an
    uncovered form e are named after its label, F[label|K] and SYM[label|k,m].
    Every form is read over the slots through the coframe's expansion of the
    ambient forms (connections.coframe_expansion, forms.slot_image); a form
    is uncovered where that expansion is empty.  The expansion of an
    uncovered form e is sum_K (val(e, K) + F[e|K]) e^K, where
    val(e, K) = values[e][K], zero where absent, is its pairing with the dual
    orthonormal frame at the point (an unknown value enters as a grade-0
    symbol and must cancel from physical outputs).  A value given for a
    covered form raises ValueError.

    The rule of the jet F[e|K] is d F[e|K] = sum_M D[K][M] e^M.  Its
    antisymmetric part D[K][M] - D[M][K] = W[(M, K)] is fixed by the
    structure equation of e, where W[(L, M)] is de(e_L, e_M) minus
    sum_K val(e, K) dtheta^K(e_L, e_M).  The rest is free: one grade-0
    unknown S[a, b] = SYM[label|a,b] per slot pair a <= b, with

        D[K][M] = S[K, M]              for K <= M,
        D[K][M] = S[M, K] + W[(M, K)]  for K > M.

    Against a symmetric unknown Y, with D[K][M] = Y[min, max] + W[(M, K)]/2,
    this is the shift S[K, M] = Y[K, M] + W[(M, K)]/2 (K <= M): a bijection
    of the unknowns, so Ricci is free of S exactly when it is free of Y, and
    every rule is integral.

    These rules, and the slot images of the ambient jet rules, are built at
    grade 0 only: they hold the grade-0 part of the exact rules, which is
    all the curvature at the point reads.  d of each slot keeps every grade.
    """
    m = len(ambient_coframe)
    expansion = coframe_expansion(ambient_coframe, len(ambient_labels))
    for e in values:
        if expansion[e].coeffs:
            raise ValueError(f"a value is given for {_label_str(ambient_labels[e])}, "
                             f"which the coframe covers")
    extras = [e for e, f in enumerate(expansion) if not f.coeffs]
    dth_amb = [exterior_derivative(th, ambient_rules) for th in ambient_coframe]

    fjets = {e: [jet_symbol(f"F[{_label_str(ambient_labels[e])}|{K}]", 1)
                 for K in range(m)] for e in extras}

    extras_expansion: dict[int, OneForm] = {}
    for e in extras:
        val = values.get(e, {})
        extras_expansion[e] = OneForm.build(
            (K, val.get(K, ZERO) + Coeff.symbol(fjets[e][K])) for K in range(m))
        expansion[e] = extras_expansion[e]

    # d_slot keeps every grade: Gamma reads its grade-1 part
    d_slot = [slot_image(dt, expansion) for dt in dth_amb]

    # The jet rules are built at grade 0 only: the curvature reads no other
    # part of them, and levi_civita on the unit slot coframe reads none.
    # Grades add under products, so each factor is cut to grade 0 first.
    expansion0 = [f.grade_part(0) for f in expansion]

    # the grade-0 part of the slot image of a 1-form
    def conv1(a: OneForm) -> OneForm:
        acc: dict = {}
        for i, c in a.coeffs.items():
            c = c.grade_part(0)
            if c.terms:
                for L, cl in expansion0[i].coeffs.items():
                    _mul_into(acc, L, cl, c)
        return OneForm(_closed(acc))

    # derivative rules of the expansion jets: antisymmetric part pinned by
    # the known d of the ambient form, the rest a fresh unknown per slot pair;
    # the grade-0 dtheta^K is imaged only for a slot K some val(e, K) reads
    dtheta0: dict[int, dict] = {}
    slot_jet_rules: dict[int, OneForm] = {}
    for e in extras:
        # W[(L, M)] = de(e_L, e_M) - sum_K val(e, K) dtheta^K(e_L, e_M)
        W = dict(slot_image(ambient_rules.d_basis[e].grade_part(0), expansion0).coeffs)
        for K, v in expansion0[e].coeffs.items():
            dt = dtheta0.get(K)
            if dt is None:
                dt = dtheta0[K] = slot_image(dth_amb[K].grade_part(0), expansion0).coeffs
            for LM, t in dt.items():
                _mul_into(W, LM, v, t, -1)
        W = _closed(W)
        lab = _label_str(ambient_labels[e])
        sym = {(a, b): Coeff.symbol(jet_symbol(f"SYM[{lab}|{a},{b}]", 0))
               for a in range(m) for b in range(a, m)}
        for K in range(m):
            items = []
            for M in range(m):
                if K <= M:
                    d_km = sym[(K, M)]
                else:
                    d_km = sym[(M, K)]
                    w = W.get((M, K))
                    if w is not None:
                        d_km = d_km + w
                items.append((M, d_km))
            slot_jet_rules[fjets[e][K]] = OneForm.build(items)

    # ambient jet rules (the alpha_i(xi_j) table) converted to slot coordinates
    for sid, rule in ambient_rules.jet_rules.items():
        slot_jet_rules[sid] = conv1(rule)

    slot_rules = DerivativeRules(d_slot, slot_jet_rules)
    slot_coframe = [OneForm.basis(K, ONE) for K in range(m)]
    gamma = levi_civita(slot_coframe, slot_rules)
    return PointGeometry(slot_rules, slot_coframe, gamma, extras_expansion)
