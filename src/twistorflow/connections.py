"""Levi-Civita connection solver for an orthonormal coframe.

Given a coframe (1-forms over the ambient invariant basis, coefficients may
carry jets) whose exterior derivatives are known, solve

    d theta^K + Gamma^K_L ^ theta^L = 0,   Gamma skew-symmetric,

uniquely.  Ambient basis forms not spanned by the coframe ("extras": alpha_2
and the Gamma~ blocks, the forms its expansion leaves empty) are allowed
inside connection entries; their coefficients are forced by the structure
equation, and the coframe-quadratic part is the usual cyclic combination of
the dtheta coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import ONE, ZERO, Coeff
from .forms import (DerivativeRules, FormMatrix, OneForm, TwoForm, _add_into, _closed,
                    _curvature_entries, _mul_into, _wedge_into, exterior_derivative, slot_image)

__all__ = ["coframe_expansion", "levi_civita", "ricci_matrix", "ricci_from_gamma",
           "NonMetricStructure"]


class NonMetricStructure(ValueError):
    """The forced (extra-form) part of the connection is not skew."""


def coframe_expansion(coframe: list[OneForm], ambient_dim: int):
    """Expansion of the ambient basis forms over the coframe: entry i is
    ambient form i as a OneForm over the coframe slots, empty exactly where
    the coframe does not cover it."""
    # lead -> (slot K, u^-1 for the lead's coefficient u, the rest of theta^K)
    covered: dict[int, tuple[int, Coeff, dict[int, Coeff]]] = {}
    for K, th in enumerate(coframe):
        best = None
        for idx, c in th.coeffs.items():
            unit = {k: v for k, v in c.terms.items() if not k[1]}
            if len(unit) == 1 and idx not in covered:
                best = idx
                break
        if best is None:
            raise ValueError(f"coframe element {K} has no free unit leading form")
        lead = best
        rest = {idx: c for idx, c in th.coeffs.items() if idx != lead}
        covered[lead] = (K, th.coeffs[lead].inverse(), rest)

    # e^lead = u^-1 (theta^K - rest); iterate substitution to a fixpoint
    expans = {lead: {K: uinv} for lead, (K, uinv, rest) in covered.items()}
    for _ in range(len(coframe)):
        changed = False
        for lead, (K, uinv, rest) in covered.items():
            acc: dict = {K: uinv}
            for idx, c in rest.items():
                sub = expans.get(idx)
                if sub is None:
                    raise ValueError("coframe rest touches an uncovered extra form")
                uc = uinv * c
                for slot, sc in sub.items():
                    _mul_into(acc, slot, uc, sc, -1)
            acc = _closed(acc)
            if acc != expans[lead]:
                expans[lead] = acc
                changed = True
        if not changed:
            break
    # exactness: recomposing the expansion must give back the basis form
    for lead in covered:
        combo: dict = {}
        for slot, sc in expans[lead].items():
            for idx, c in coframe[slot].coeffs.items():
                _mul_into(combo, idx, sc, c)
        if _closed(combo) != {lead: ONE}:
            raise ValueError("coframe expansion failed to converge")
    return [OneForm(expans.get(i, {})) for i in range(ambient_dim)]


def _decompose(two: TwoForm, expansion: list[OneForm]):
    """Split a 2-form into coframe-quadratic, extra^coframe and extra^extra
    parts; an extra is a form with an empty expansion."""
    M: dict = {}
    E: dict[tuple[int, int], Coeff] = {}
    for (i, j), c in two.coeffs.items():
        ei, ej = expansion[i].coeffs, expansion[j].coeffs
        if not ei and not ej:
            E[(i, j)] = c
        elif not ei:
            for L, cl in ej.items():
                _mul_into(M, (i, L), c, cl)
        elif not ej:
            for K, ck in ei.items():
                _mul_into(M, (j, K), c, ck, -1)
    return slot_image(two, expansion).coeffs, _closed(M), E


def _halved(v) -> Coeff:
    """v / 2 for a sum under construction (a Coeff or a raw term map), built
    as one Coeff: zeros are dropped, an even int is shifted, and only an odd
    int or a Fraction becomes a Fraction (which is then not integral, as the
    ring stores it)."""
    terms = {}
    for key, x in (v.terms if v.__class__ is Coeff else v).items():
        if x:
            if x.__class__ is not int:
                if x.denominator != 1:
                    terms[key] = x / 2
                    continue
                x = x.numerator
            terms[key] = Fraction(x, 2) if x & 1 else x >> 1
    return Coeff(terms)


def levi_civita(coframe: list[OneForm], rules: DerivativeRules) -> FormMatrix:
    """Solve the first structure equation; the forced part is checked to be
    skew and the solution to satisfy the equation exactly.

    The coframe-quadratic part is the Koszul combination of the dtheta
    coefficients, summed as 2 Gamma^K_L for K < L only and halved once per
    coefficient by a shift of each even int, so integral structure functions
    keep the whole solve in int arithmetic; Gamma^L_K = -Gamma^K_L.
    """
    m = len(coframe)
    expansion = coframe_expansion(coframe, len(rules.d_basis))

    dths = [exterior_derivative(th, rules) for th in coframe]
    decomposed = [_decompose(dt, expansion) for dt in dths]
    for K, (_, _, E) in enumerate(decomposed):
        if E:
            raise ValueError(f"d theta^{K} has an extra^extra component: {E}")

    # forced extra part: Gamma^K_L |_extra = -M^K[(e, L)], one term per entry
    forced: list[list[dict[int, Coeff]]] = [[{} for _ in range(m)] for _ in range(m)]
    for K, (_, MK, _) in enumerate(decomposed):
        for (e, L), c in MK.items():
            forced[K][L][e] = -c
    for K in range(m):
        for L in range(m):
            for e, c in forced[K][L].items():
                other = forced[L][K].get(e, ZERO)
                if not (c + other).is_zero():
                    raise NonMetricStructure(
                        f"forced part not skew at rows {K},{L}, extra {e}")

    # coframe-quadratic part: d theta^P = -(1/2) c^P_{AB} theta^A ^ theta^B, and
    # 2 Gamma^K_L(e_M) = -(c^K_{LM} + c^L_{MK} - c^M_{KL}).  Each stored
    # coefficient x of theta^A ^ theta^B (A < B, so c^P_{AB} = -x) feeds one
    # entry of 2 Gamma with K < L for each of the pairs {P, A}, {P, B} and
    # {A, B}; a pair with K = L cancels and is skipped.
    twice: list[list[dict]] = [[{} for _ in range(m)] for _ in range(m)]
    for P, (CP, _, _) in enumerate(decomposed):
        for (A, B), x in CP.items():
            if P < A:
                _add_into(twice[P][A], B, x)
            elif P > A:
                _add_into(twice[A][P], B, x, -1)
            if P < B:
                _add_into(twice[P][B], A, x, -1)
            elif P > B:
                _add_into(twice[B][P], A, x)
            _add_into(twice[A][B], P, x, -1)

    entries = [[OneForm({}) for _ in range(m)] for _ in range(m)]
    for K in range(m):
        for L in range(K + 1, m):
            acc = dict(forced[K][L])
            for Mi, v in twice[K][L].items():
                g = _halved(v)
                if g.terms:
                    for idx, c in coframe[Mi].coeffs.items():
                        _mul_into(acc, idx, g, c)
            entries[K][L] = OneForm(_closed(acc))
            entries[L][K] = -entries[K][L]
    gamma = FormMatrix(m, entries)

    for K in range(m):
        resid = dict(dths[K].coeffs)
        for L in range(m):
            _wedge_into(resid, gamma.entries[K][L], coframe[L])
        resid = _closed(resid)
        if resid:
            raise ValueError(f"first structure equation fails at row {K}: {resid}")
    return gamma


def ricci_matrix(curv: FormMatrix, expansion: list[OneForm]) -> list[list[Coeff]]:
    """Ric(e_i, e_j) = sum_k Omega^j_k(e_i, e_k) over the orthonormal frame
    dual to a coframe, read through the coframe's expansion of each ambient
    form (coframe_expansion) as the slot_image of each Omega entry."""
    m = curv.dim
    acc: dict = {}
    for j in range(m):
        for k in range(m):
            # the image holds Omega^j_k(e_a, e_b) at a < b; (b, a) is its negative
            for (a, b), t in slot_image(curv.entries[j][k], expansion).coeffs.items():
                if b == k:
                    _add_into(acc, (a, j), t)
                elif a == k:
                    _add_into(acc, (b, j), t, -1)
    acc = _closed(acc)
    return [[acc.get((i, j), ZERO) for j in range(m)] for i in range(m)]


def ricci_from_gamma(gamma: FormMatrix, rules: DerivativeRules) -> list[list[Coeff]]:
    """ricci_matrix(curvature(gamma, rules), coframe) for the unit coframe
    e^K = {K: 1} of the basis gamma is written over (its own expansion),
    without building Omega.

    Over those frames Omega^j_k(e_i, e_k) is the (i, k) component of
    Omega^j_k, so Ric reads of each Omega^i_j (i < j) only the components
    with an index in {i, j}, and no other component is computed.
    """
    m = gamma.dim
    acc: dict = {}
    for i, j, w in _curvature_entries(gamma, rules, touching=True):
        # Ric(e_a, e_i) += Omega^i_j(e_a, e_j), Ric(e_a, e_j) += Omega^j_i(e_a, e_i)
        for (p, q), c in w.items():
            if q == j:
                _add_into(acc, (p, i), c)
            elif p == j:
                _add_into(acc, (q, i), c, -1)
            if q == i:
                _add_into(acc, (p, j), c, -1)
            elif p == i:
                _add_into(acc, (q, j), c)
    acc = _closed(acc)
    return [[acc.get((a, b), ZERO) for b in range(m)] for a in range(m)]
