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

from dataclasses import dataclass
from fractions import Fraction

from .coeff import ONE, ZERO, Coeff, jet_symbol
from .connections import coframe_expansion, levi_civita, ricci_matrix
from .forms import (DerivativeRules, FormMatrix, OneForm, TwoForm, _add_into, _wedge_into,
                    curvature, eval_pair, exterior_derivative)

__all__ = ["SlotBasis", "PointGeometry", "point_geometry"]


class SlotBasis:
    """Synthetic basis indexing the coframe slots themselves."""

    def __init__(self, m: int):
        self.labels = [("TH", K) for K in range(m)]
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def dim(self) -> int:
        return len(self.labels)


def _label_str(label: tuple) -> str:
    return ",".join(str(x) for x in label)


@dataclass
class PointGeometry:
    """Coframe-coordinate model of a metric germ at the base point.

    omega is the curvature at the point (the grade-0 part of the second
    structure equation), not the full curvature germ.  A PointGeometry
    returned by zmetric.z_geometry is a cached object shared by every
    caller and must not be mutated.
    """

    slot_basis: SlotBasis
    rules: DerivativeRules
    coframe: list[OneForm]
    frames: list[dict]
    gamma: FormMatrix
    omega: FormMatrix
    extras_expansion: dict[int, OneForm]

    def ricci(self) -> list[list[Coeff]]:
        return ricci_matrix(self.omega, self.frames)


def point_geometry(ambient_coframe: list[OneForm], ambient_rules: DerivativeRules,
                   value_frames: list[dict]) -> PointGeometry:
    """Build connection and curvature of the coframe metric at the point.

    value_frames[K] is the pairing table of the dual orthonormal frame
    against every ambient basis form (values at the point; unknown values
    enter as grade-0 symbols and must cancel from physical outputs).
    """
    m = len(ambient_coframe)
    ambient_basis = ambient_rules.basis
    expans, extras = coframe_expansion(ambient_coframe, ambient_basis.dim())
    dth_amb = [exterior_derivative(th, ambient_rules) for th in ambient_coframe]

    def val(e: int, K: int) -> Coeff:
        return value_frames[K].get(e, ZERO)

    fjets = {e: [jet_symbol(f"F[{_label_str(ambient_basis.labels[e])}|{K}]", 1)
                 for K in range(m)] for e in extras}

    extras_expansion: dict[int, OneForm] = {}
    for e in extras:
        items = []
        for K in range(m):
            c = val(e, K) + Coeff.symbol(fjets[e][K])
            items.append((K, c))
        extras_expansion[e] = OneForm.build(items)

    def conv1(a: OneForm) -> OneForm:
        acc: dict[int, Coeff] = {}
        for i, c in a.coeffs.items():
            exp = extras_expansion[i].coeffs if i in extras else expans[i]
            for L, cl in exp.items():
                _add_into(acc, L, cl * c)
        return OneForm(acc)

    def conv2(w: TwoForm) -> TwoForm:
        acc: dict[tuple[int, int], Coeff] = {}
        cache: dict[int, OneForm] = {}

        def exp1(i: int) -> OneForm:
            f = cache.get(i)
            if f is None:
                if i in extras:
                    f = extras_expansion[i]
                else:
                    f = OneForm({L: cl for L, cl in expans[i].items()})
                cache[i] = f
            return f

        for (i, j), c in w.coeffs.items():
            _wedge_into(acc, exp1(i), exp1(j).scale(c))
        return TwoForm(acc)

    d_slot = [conv2(dt) for dt in dth_amb]

    # derivative rules of the expansion jets: antisymmetric part pinned by
    # the known d of the ambient form, symmetric part a fresh unknown
    dtheta_pair = [[[eval_pair(dth_amb[K], value_frames[L], value_frames[M])
                     for M in range(m)] for L in range(m)] for K in range(m)]

    slot_jet_rules: dict[int, OneForm] = {}
    for e in extras:
        de = ambient_rules.d_basis[e]
        W = [[None] * m for _ in range(m)]
        for L in range(m):
            for M in range(m):
                if L == M:
                    W[L][M] = ZERO
                    continue
                t = eval_pair(de, value_frames[L], value_frames[M])
                for K in range(m):
                    v = val(e, K)
                    if not v.is_zero():
                        t = t - v * dtheta_pair[K][L][M]
                W[L][M] = t
        lab = _label_str(ambient_basis.labels[e])
        half = Fraction(1, 2)
        for K in range(m):
            items = []
            for M in range(m):
                kk, mm = (K, M) if K <= M else (M, K)
                sym = Coeff.symbol(jet_symbol(f"SYM[{lab}|{kk},{mm}]", 0))
                d_km = sym + W[M][K].scale(half)
                items.append((M, d_km))
            slot_jet_rules[fjets[e][K].sid] = OneForm.build(items)

    # ambient jet rules (the alpha_i(xi_j) table) converted to slot coordinates
    for sid, rule in ambient_rules.jet_rules.items():
        slot_jet_rules[sid] = conv1(rule)

    slot_basis = SlotBasis(m)
    slot_rules = DerivativeRules(slot_basis, d_slot, slot_jet_rules)
    slot_coframe = [OneForm.basis(K, ONE) for K in range(m)]
    gamma = levi_civita(slot_coframe, slot_rules)
    omega = curvature(gamma, slot_rules)
    frames = [{K: ONE} for K in range(m)]
    return PointGeometry(slot_basis, slot_rules, slot_coframe, frames, gamma, omega,
                         extras_expansion)
