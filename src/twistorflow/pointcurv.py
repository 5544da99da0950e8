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
from .forms import (DerivativeRules, FormMatrix, OneForm, TwoForm, _add_into, _wedge_into,
                    curvature, exterior_derivative, frame_index, pairing_table)

__all__ = ["PointGeometry", "point_geometry"]


def _label_str(label: tuple) -> str:
    return ",".join(str(x) for x in label)


class PointGeometry:
    """Coframe-coordinate model of a metric germ at the base point.

    Every form is written over the coframe slots 0..m-1: rules holds d of
    each slot and the rules of the expansion jets, coframe[K] is e^K and
    frames[K] is the unit frame {K: 1}.

    omega is the curvature at the point (the grade-0 part of the second
    structure equation), not the full curvature germ.  It is lazy: computed
    on first read, then cached, and so is ricci().  ricci() never reads
    omega; it contracts Gamma over the unit slot frames directly
    (connections.ricci_from_gamma), which computes of each Omega^i_j (i < j)
    only the components with an index in {i, j}.  A PointGeometry returned
    by zmetric.z_geometry is a cached object shared by every caller and must
    not be mutated, nor may the matrix ricci() returns.
    """

    def __init__(self, rules: DerivativeRules, coframe: list[OneForm], frames: list[dict],
                 gamma: FormMatrix, extras_expansion: dict[int, OneForm]):
        self.rules = rules
        self.coframe = coframe
        self.frames = frames
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
                   ambient_rules: DerivativeRules, value_frames: list[dict]) -> PointGeometry:
    """Build connection and curvature of the coframe metric at the point.

    ambient_labels[i] labels ambient basis form i; the fresh jets of an
    uncovered form e are named after its label, F[label|K] and SYM[label|k,m].
    value_frames[K] is the pairing table of the dual orthonormal frame
    against every ambient basis form (values at the point; unknown values
    enter as grade-0 symbols and must cancel from physical outputs).

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
    """
    m = len(ambient_coframe)
    expans, extras = coframe_expansion(ambient_coframe, len(ambient_labels))
    dth_amb = [exterior_derivative(th, ambient_rules) for th in ambient_coframe]

    def val(e: int, K: int) -> Coeff:
        return value_frames[K].get(e, ZERO)

    fjets = {e: [jet_symbol(f"F[{_label_str(ambient_labels[e])}|{K}]", 1)
                 for K in range(m)] for e in extras}

    extras_expansion: dict[int, OneForm] = {}
    for e in extras:
        items = []
        for K in range(m):
            c = val(e, K) + Coeff.symbol(fjets[e][K])
            items.append((K, c))
        extras_expansion[e] = OneForm.build(items)
    # the slot expansion of each ambient basis form, read by conv1 and conv2
    expansion = [extras_expansion[i] if i in extras else OneForm(expans[i])
                 for i in range(len(ambient_labels))]

    def conv1(a: OneForm) -> OneForm:
        acc: dict[int, Coeff] = {}
        for i, c in a.coeffs.items():
            for L, cl in expansion[i].coeffs.items():
                _add_into(acc, L, cl * c)
        return OneForm(acc)

    def conv2(w: TwoForm) -> TwoForm:
        acc: dict[tuple[int, int], Coeff] = {}
        for (i, j), c in w.coeffs.items():
            _wedge_into(acc, expansion[i], expansion[j].scale(c))
        return TwoForm(acc)

    d_slot = [conv2(dt) for dt in dth_amb]

    # derivative rules of the expansion jets: antisymmetric part pinned by
    # the known d of the ambient form, the rest a fresh unknown per slot pair
    index = frame_index(value_frames)
    dtheta_pair = [pairing_table(dt, index) for dt in dth_amb]

    slot_jet_rules: dict[int, OneForm] = {}
    for e in extras:
        # W[(L, M)] = de(e_L, e_M) - sum_K val(e, K) dtheta^K(e_L, e_M)
        W = pairing_table(ambient_rules.d_basis[e], index)
        for K in range(m):
            v = val(e, K)
            if not v.is_zero():
                for LM, t in dtheta_pair[K].items():
                    _add_into(W, LM, -(v * t))
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
            slot_jet_rules[fjets[e][K].sid] = OneForm.build(items)

    # ambient jet rules (the alpha_i(xi_j) table) converted to slot coordinates
    for sid, rule in ambient_rules.jet_rules.items():
        slot_jet_rules[sid] = conv1(rule)

    slot_rules = DerivativeRules(d_slot, slot_jet_rules)
    slot_coframe = [OneForm.basis(K, ONE) for K in range(m)]
    gamma = levi_civita(slot_coframe, slot_rules)
    frames = [{K: ONE} for K in range(m)]
    return PointGeometry(slot_rules, slot_coframe, frames, gamma, extras_expansion)
