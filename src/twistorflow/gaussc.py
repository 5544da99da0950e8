"""Gaussian-rational (pairs of exact Coeffs) layer for the complex-basis
transform of connection matrices: no floating point anywhere."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import ONE
from .forms import FormMatrix, OneForm, _add_into

__all__ = ["CForm", "complex_transform", "mixing_blocks_zero", "hol_block_skew_hermitian",
           "hol_trace"]


@dataclass(frozen=True)
class CForm:
    """Complex form: re + i im, both real OneForms or both real TwoForms."""

    re: OneForm
    im: OneForm

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()


def complex_transform(gamma: FormMatrix, n: int) -> list[list[CForm]]:
    """Transform a real (4n+2) form matrix to the basis
    (lambda zeta^0, Z^1_a, Z^2_a, conjugates), zeta^0 = alpha_1 + i alpha_3,
    Z^1 = X^0 + i X^2, Z^2 = X^1 + i X^3.

    U pairs each real slot with one other: complex slot p is the real pair
    (r1, r2) with sign s_p, +1 for the 2n+1 holomorphic slots and -1 for
    their conjugates, in the same order.  Entry (p, q) of U M U^{-1}, for q
    the pair (t1, t2) with sign s_q, is
        re = (M[r1][t1] + s_p s_q M[r2][t2]) / 2
        im = (s_p M[r2][t1] - s_q M[r1][t2]) / 2.
    Entries may be one- or two-forms (both support +, - and scale).
    """
    # real slots: alpha_1, alpha_3, then X^i_a at 2 + i n + a - 1
    hol = [(0, 1)] + [(1 + a, 1 + 2 * n + a) for a in range(1, n + 1)]
    hol += [(1 + n + a, 1 + 3 * n + a) for a in range(1, n + 1)]
    slots = [(r1, r2, 1) for r1, r2 in hol] + [(r1, r2, -1) for r1, r2 in hol]
    half = {1: ONE.scale(Fraction(1, 2)), -1: ONE.scale(Fraction(-1, 2))}
    M = gamma.entries
    return [[CForm(M[r1][t1].scale(half[1]) + M[r2][t2].scale(half[sp * sq]),
                   M[r2][t1].scale(half[sp]) - M[r1][t2].scale(half[sq]))
             for t1, t2, sq in slots]
            for r1, r2, sp in slots]


def mixing_blocks_zero(cmat: list[list[CForm]], n: int) -> bool:
    """Whether the (1,0) x (0,1) coupling of the complexified connection vanishes."""
    m = 2 * n + 1
    for p in range(m):
        for q in range(m, 2 * m):
            if not cmat[p][q].is_zero():
                return False
    for p in range(m, 2 * m):
        for q in range(m):
            if not cmat[p][q].is_zero():
                return False
    return True


def hol_block_skew_hermitian(cmat: list[list[CForm]], n: int) -> bool:
    m = 2 * n + 1
    for p in range(m):
        for q in range(m):
            # skew-Hermitian: M[p][q] = -conj(M[q][p])
            if not (cmat[p][q].re + cmat[q][p].re).is_zero():
                return False
            if not (cmat[p][q].im - cmat[q][p].im).is_zero():
                return False
    return True


def hol_trace(cmat: list[list[CForm]], n: int) -> CForm:
    """Trace over the holomorphic block (the Ricci form for a curvature matrix)."""
    re: dict = {}
    im: dict = {}
    for p in range(2 * n + 1):
        for acc, part in ((re, cmat[p][p].re), (im, cmat[p][p].im)):
            for key, c in part.coeffs.items():
                _add_into(acc, key, c)
    form = type(cmat[0][0].re)
    return CForm(form(re), form(im))
