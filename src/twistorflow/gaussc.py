"""Gaussian-rational (pairs of exact Coeffs) layer for the complex-basis
transform of connection matrices: no floating point anywhere."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import ONE, Coeff
from .forms import FormMatrix, OneForm

__all__ = ["CForm", "complex_transform", "mixing_blocks_zero", "hol_block_skew_hermitian",
           "hol_trace"]


@dataclass(frozen=True)
class CForm:
    """Complex 1-form: re + i im, both real OneForms."""

    re: OneForm
    im: OneForm

    def __add__(self, other: "CForm") -> "CForm":
        return CForm(self.re + other.re, self.im + other.im)

    def scale(self, re: Coeff, im: Coeff) -> "CForm":
        return CForm(self.re.scale(re) - self.im.scale(im),
                     self.re.scale(im) + self.im.scale(re))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def conj(self) -> "CForm":
        return CForm(self.re, -self.im)


def _cmat_entry(zero):
    return CForm(zero, zero)


def complex_transform(gamma: FormMatrix, n: int) -> list[list[CForm]]:
    """Transform a real (4n+2) form matrix to the basis
    (lambda zeta^0, Z^1_a, Z^2_a, conjugates), zeta^0 = alpha_1 + i alpha_3,
    Z^1 = X^0 + i X^2, Z^2 = X^1 + i X^3.

    U has one +-1/+-i per slot, so U M U^{-1} is assembled sparsely; entries
    may be one- or two-forms (both support add and scale).
    """
    dim = 4 * n + 2
    m = 2 * n + 1

    def xi(i, a):
        return 2 + i * n + (a - 1)

    # complex row p is built from real rows: list of (real row, re, im)
    rows: list[list[tuple[int, Fraction, Fraction]]] = []
    rows.append([(0, Fraction(1), Fraction(0)), (1, Fraction(0), Fraction(1))])
    for a in range(1, n + 1):
        rows.append([(xi(0, a), Fraction(1), Fraction(0)),
                     (xi(2, a), Fraction(0), Fraction(1))])
    for a in range(1, n + 1):
        rows.append([(xi(1, a), Fraction(1), Fraction(0)),
                     (xi(3, a), Fraction(0), Fraction(1))])
    for combo in list(rows):
        rows.append([(r, re, -im) for (r, re, im) in combo])

    # real column s decomposes over complex columns: real = sum (re+i im) z_q
    cols: list[list[tuple[int, Fraction, Fraction]]] = [[] for _ in range(dim)]

    def set_col(real_idx, q, re, im):
        cols[real_idx].append((q, re, im))

    h = Fraction(1, 2)
    set_col(0, 0, h, Fraction(0))
    set_col(0, m, h, Fraction(0))
    set_col(1, 0, Fraction(0), -h)
    set_col(1, m, Fraction(0), h)
    for a in range(1, n + 1):
        set_col(xi(0, a), a, h, Fraction(0))
        set_col(xi(0, a), m + a, h, Fraction(0))
        set_col(xi(2, a), a, Fraction(0), -h)
        set_col(xi(2, a), m + a, Fraction(0), h)
        set_col(xi(1, a), n + a, h, Fraction(0))
        set_col(xi(1, a), m + n + a, h, Fraction(0))
        set_col(xi(3, a), n + a, Fraction(0), -h)
        set_col(xi(3, a), m + n + a, Fraction(0), h)

    zero = type(gamma.entries[0][0])({})
    out = [[_cmat_entry(zero) for _ in range(dim)] for _ in range(dim)]
    for p in range(dim):
        for (r, pre, pim) in rows[p]:
            for s in range(dim):
                entry = gamma.entries[r][s]
                if entry.is_zero():
                    continue
                for (q, cre, cim) in cols[s]:
                    re = pre * cre - pim * cim
                    im = pre * cim + pim * cre
                    add = CForm(entry, zero).scale(ONE.scale(re), ONE.scale(im))
                    out[p][q] = out[p][q] + add
    return out


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
    m = 2 * n + 1
    total = cmat[0][0]
    for p in range(1, m):
        total = total + cmat[p][p]
    return total
