"""Levi-Civita connection solver for an orthonormal coframe.

Given a coframe (1-forms over the ambient invariant basis, coefficients may
carry jets) whose exterior derivatives are known, solve

    d theta^K + Gamma^K_L ^ theta^L = 0,   Gamma skew-symmetric,

uniquely.  Ambient basis forms not spanned by the coframe ("extras": alpha_2
and the Gamma~ blocks) are allowed inside connection entries; their
coefficients are forced by the structure equation, and the coframe-quadratic
part is the usual cyclic combination of the dtheta coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import ONE, ZERO, Coeff
from .forms import (DerivativeRules, FormMatrix, OneForm, TwoForm, eval_pair,
                    exterior_derivative, wedge)

__all__ = ["coframe_expansion", "levi_civita", "ricci_matrix", "NonMetricStructure"]


class NonMetricStructure(ValueError):
    """The forced (extra-form) part of the connection is not skew."""


def coframe_expansion(coframe: list[OneForm], ambient_dim: int):
    """Expansion of covered ambient basis forms over the coframe.

    Returns (expans, extras): expans maps ambient index -> {coframe slot:
    Coeff}; extras is the set of ambient indices not covered.
    """
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
        covered[lead] = (K, th.coeffs[lead], rest)

    # e^lead = u^-1 (theta^K - rest); iterate substitution to a fixpoint
    expans: dict[int, dict[int, Coeff]] = {}
    for lead, (K, u, rest) in covered.items():
        expans[lead] = {K: u.inverse()}
    for _ in range(len(coframe)):
        changed = False
        for lead, (K, u, rest) in covered.items():
            uinv = u.inverse()
            acc: dict[int, Coeff] = {K: uinv}
            ok = True
            for idx, c in rest.items():
                sub = expans.get(idx)
                if sub is None:
                    if idx in covered:
                        ok = False
                        break
                    raise ValueError("coframe rest touches an uncovered extra form")
                for slot, sc in sub.items():
                    add = -(uinv * c * sc)
                    prev = acc.get(slot)
                    nv = add if prev is None else prev + add
                    if nv.is_zero():
                        acc.pop(slot, None)
                    else:
                        acc[slot] = nv
            if ok and acc != expans[lead]:
                expans[lead] = acc
                changed = True
        if not changed:
            break
    # exactness: recomposing the expansion must give back the basis form
    for lead, (K, u, rest) in covered.items():
        combo: dict[int, Coeff] = {}
        for slot, sc in expans[lead].items():
            for idx, c in coframe[slot].coeffs.items():
                t = sc * c
                prev = combo.get(idx)
                nv = t if prev is None else prev + t
                if nv.is_zero():
                    combo.pop(idx, None)
                else:
                    combo[idx] = nv
        if combo != {lead: ONE}:
            raise ValueError("coframe expansion failed to converge")
    extras = set(range(ambient_dim)) - set(covered)
    return expans, extras


def _decompose(two: TwoForm, expans, extras):
    """Split a 2-form into coframe-quadratic, extra^coframe and extra^extra parts."""
    C: dict[tuple[int, int], Coeff] = {}
    M: dict[tuple[int, int], Coeff] = {}
    E: dict[tuple[int, int], Coeff] = {}

    def addC(K, L, c):
        if c.is_zero() or K == L:
            return
        if K > L:
            K, L, c = L, K, -c
        prev = C.get((K, L))
        nv = c if prev is None else prev + c
        if nv.is_zero():
            C.pop((K, L), None)
        else:
            C[(K, L)] = nv

    def addM(e, L, c):
        if c.is_zero():
            return
        prev = M.get((e, L))
        nv = c if prev is None else prev + c
        if nv.is_zero():
            M.pop((e, L), None)
        else:
            M[(e, L)] = nv

    for (i, j), c in two.coeffs.items():
        i_extra, j_extra = i in extras, j in extras
        if i_extra and j_extra:
            prev = E.get((i, j))
            nv = c if prev is None else prev + c
            if not nv.is_zero():
                E[(i, j)] = nv
            elif (i, j) in E:
                del E[(i, j)]
        elif i_extra:
            for L, cl in expans[j].items():
                addM(i, L, c * cl)
        elif j_extra:
            for K, ck in expans[i].items():
                addM(j, K, -(c * ck))
        else:
            for K, ck in expans[i].items():
                for L, cl in expans[j].items():
                    addC(K, L, c * ck * cl)
    return C, M, E


def levi_civita(coframe: list[OneForm], rules: DerivativeRules,
                block_map=None) -> FormMatrix:
    """Solve the first structure equation; the solution is checked to be skew
    and to satisfy the equation exactly."""
    m = len(coframe)
    expans, extras = coframe_expansion(coframe, rules.basis.dim())

    dths = [exterior_derivative(th, rules) for th in coframe]
    decomposed = [_decompose(dt, expans, extras) for dt in dths]
    for K, (_, _, E) in enumerate(decomposed):
        if E:
            raise ValueError(f"d theta^{K} has an extra^extra component: {E}")

    # forced extra part: Gamma^K_L |_extra = -M^K[(e, L)]
    forced: list[list[dict[int, Coeff]]] = [[{} for _ in range(m)] for _ in range(m)]
    for K, (_, MK, _) in enumerate(decomposed):
        for (e, L), c in MK.items():
            forced[K][L][e] = forced[K][L].get(e, ZERO) - c
    for K in range(m):
        for L in range(m):
            for e, c in forced[K][L].items():
                other = forced[L][K].get(e, ZERO)
                if not (c + other).is_zero():
                    raise NonMetricStructure(
                        f"forced part not skew at rows {K},{L}, extra {e}")

    # coframe-quadratic part: d theta^K = -(1/2) C^K_{LM} theta^L ^ theta^M
    def Cget(K, L, M_):
        CK = decomposed[K][0]
        if L == M_:
            return ZERO
        if L < M_:
            d = CK.get((L, M_))
            return -d if d is not None else ZERO
        return CK.get((M_, L), ZERO)

    half = Fraction(1, 2)
    gamma_cof: list[list[dict[int, Coeff]]] = [[{} for _ in range(m)] for _ in range(m)]
    for K in range(m):
        for L in range(m):
            if K == L:
                continue
            for Mi in range(m):
                g = (Cget(K, L, Mi) + Cget(L, Mi, K) - Cget(Mi, K, L)).scale(-half)
                if not g.is_zero():
                    gamma_cof[K][L][Mi] = g

    entries: list[list[OneForm]] = []
    for K in range(m):
        row = []
        for L in range(m):
            acc: dict[int, Coeff] = dict(forced[K][L])
            for Mi, g in gamma_cof[K][L].items():
                for idx, c in coframe[Mi].coeffs.items():
                    t = g * c
                    prev = acc.get(idx)
                    nv = t if prev is None else prev + t
                    if nv.is_zero():
                        acc.pop(idx, None)
                    else:
                        acc[idx] = nv
            row.append(OneForm({i: c for i, c in acc.items() if not c.is_zero()}))
        entries.append(row)
    gamma = FormMatrix(m, entries, block_map or {})

    if not gamma.is_skew():
        raise NonMetricStructure("derived connection is not skew")
    for K in range(m):
        resid = dths[K]
        for L in range(m):
            if not gamma.entries[K][L].is_zero():
                resid = resid + wedge(gamma.entries[K][L], coframe[L])
        if not resid.is_zero():
            raise ValueError(f"first structure equation fails at row {K}: {resid.coeffs}")
    return gamma


def ricci_matrix(curv: FormMatrix, frames: list) -> list[list[Coeff]]:
    """Ric(e_i, e_j) = sum_k Omega^j_k(e_i, e_k) over an orthonormal frame."""
    m = curv.dim
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            total = None
            for k in range(m):
                w = curv.entries[j][k]
                if w.is_zero():
                    continue
                t = eval_pair(w, frames[i], frames[k])
                total = t if total is None else total + t
            row.append(total if total is not None else ZERO)
        out.append(row)
    return out
