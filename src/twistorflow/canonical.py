"""The canonical deformation metric family on the twistor space.

Connection and curvature are derived from the first structure equation of
the coframe {lambda alpha_1, lambda alpha_3, X^0..X^3}; the Ricci tensor is
computed by exact contraction over the orthonormal dual frame, never by
transcribing the closed-form answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeff import ONE, Coeff, active_cutoff, jet_symbol
from .connections import levi_civita, ricci_matrix
from .forms import Basis, FormMatrix, OneForm, TwoForm, curvature, specialize
from .liealg import _sp_structure, make_rules

__all__ = [
    "MetricParams",
    "RicciDiag",
    "OutOfDomain",
    "connection_canonical",
    "connection_canonical_transcribed",
    "curvature_canonical",
    "ricci_canonical",
    "einstein_solve_canonical",
    "ricci_map_canonical",
    "kahler_criterion",
    "contact_check",
    "canonical_setup",
]


class OutOfDomain(ValueError):
    pass


S_RATIO = jet_symbol("SRATIO", 0)


@dataclass(frozen=True)
class MetricParams:
    """Parameters of a twistor metric: lambda2 None means symbolic lambda."""

    n: int
    lambda2: Fraction | None = None
    rho: Fraction = Fraction(1)
    s_ratio: Fraction | None = Fraction(1)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("paper setting requires n > 1")
        if self.lambda2 is not None and self.lambda2 <= 0:
            raise ValueError("lambda^2 must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.s_ratio is not None and self.s_ratio <= 0:
            raise ValueError("S/S~ must be positive")


@dataclass
class RicciDiag:
    """Diagonal Ricci coefficients of a fiber/base block metric."""

    fiber: Coeff
    base: Coeff
    off_diagonal_zero: bool

    def fiber_at(self, mu) -> Fraction:
        return self.fiber.eval_lambda2(mu)

    def base_at(self, mu) -> Fraction:
        return self.base.eval_lambda2(mu)


def _s_ratio_coeff(s_ratio: Fraction | None) -> Coeff | None:
    if s_ratio is None:
        return Coeff.symbol(S_RATIO)
    if s_ratio == 1:
        return None
    return Coeff.rational(s_ratio)


def _at(x, p: MetricParams):
    """A symbolic form or form matrix, specialized at p's numeric lambda^2."""
    return x if p.lambda2 is None else specialize(x, p.lambda2)


def _ricci_diag(ric: list[list[Coeff]]) -> RicciDiag:
    """Fiber and base coefficients of a Ricci matrix over (fiber 2, base 4n)
    slots, checking that each block is a multiple of the identity."""
    dim = len(ric)
    off_ok = all(ric[i][j].is_zero() for i in range(dim) for j in range(dim) if i != j)
    fiber = ric[0][0]
    base = ric[2][2]
    if ric[1][1] != fiber:
        raise ValueError("Ricci fiber block is not a multiple of the identity")
    if any(ric[k][k] != base for k in range(2, dim)):
        raise ValueError("Ricci base block is not a multiple of the identity")
    return RicciDiag(fiber, base, off_ok)


def canonical_setup(p: MetricParams):
    """Basis, derivative rules, coframe and orthonormal frame for g^can,
    symbolic in lambda."""
    n = p.n
    basis = Basis(n)
    rules = make_rules(_sp_structure(n), basis, s_ratio=_s_ratio_coeff(p.s_ratio))
    lam = Coeff.lam_power(1)
    lam_inv = Coeff.lam_power(-1)
    coframe = [OneForm.basis(basis.a(1), lam), OneForm.basis(basis.a(3), lam)]
    coframe += [OneForm.basis(basis.x(i, a), ONE)
                for i in range(4) for a in range(1, n + 1)]
    frames = [{basis.a(1): lam_inv}, {basis.a(3): lam_inv}]
    frames += [{basis.x(i, a): ONE} for i in range(4) for a in range(1, n + 1)]
    block_map = {"fiber": [0, 1], "base": list(range(2, 4 * n + 2))}
    return basis, rules, coframe, frames, block_map


@lru_cache(maxsize=None)
def _solve_canonical(n: int, s_ratio: Fraction | None, cutoff: int):
    """(basis, rules, frames, Levi-Civita connection) of g^can, symbolic in
    lambda.  cutoff is the active jet cutoff, part of the key only.  The
    result is shared by every caller and must not be mutated."""
    basis, rules, coframe, frames, block_map = canonical_setup(MetricParams(n, s_ratio=s_ratio))
    return basis, rules, frames, levi_civita(coframe, rules, block_map=block_map)


def _solved(p: MetricParams):
    return _solve_canonical(p.n, p.s_ratio, active_cutoff())


def connection_canonical(p: MetricParams) -> FormMatrix:
    basis, rules, frames, gamma = _solved(p)
    return _at(gamma, p)


def connection_canonical_transcribed(p: MetricParams) -> FormMatrix:
    """The displayed connection matrix of the first structure equation.

    The alpha_2 correction in the Gamma_2 slots carries no (lambda^2 - 1)
    factor: alpha_2 is not a fiber direction, and the displayed factor there
    is a known typo (the structure equation is the arbiter).
    """
    n = p.n
    basis = Basis(n)
    lam = Coeff.lam_power(1)
    lm1 = Coeff.lam_power(2) - ONE  # lambda^2 - 1

    def alpha(i: int, c: Coeff) -> OneForm:
        return OneForm.basis(basis.a(i), c)

    def gamma_entry(m: int, a: int, b: int, gsign: int, acorr: Coeff | None) -> OneForm:
        idx, sign = basis.g(m, a, b)
        f = OneForm({}) if idx < 0 else OneForm.basis(idx, ONE.scale(sign * gsign))
        if acorr is not None and a == b and not acorr.is_zero():
            f = f + alpha(m, acorr)
        return f

    dim = 4 * n + 2
    M = FormMatrix.zero(dim, block_map={"fiber": [0, 1], "base": list(range(2, dim))})

    def xi(i, a):
        return 2 + i * n + (a - 1)

    M.entries[0][1] = alpha(2, ONE.scale(-2))
    M.entries[1][0] = alpha(2, ONE.scale(2))
    # fiber rows against base columns: (X index, sign) of -lambda^t X^i blocks
    fiber_base = {
        (0, 0): (1, -1), (0, 1): (0, 1), (0, 2): (3, 1), (0, 3): (2, -1),
        (1, 0): (3, -1), (1, 1): (2, 1), (1, 2): (1, -1), (1, 3): (0, 1),
    }
    for (f, i), (xidx, sign) in fiber_base.items():
        for a in range(1, n + 1):
            M.entries[f][xi(i, a)] = OneForm.basis(basis.x(xidx, a), lam.scale(sign))
            M.entries[xi(i, a)][f] = OneForm.basis(basis.x(xidx, a), lam.scale(-sign))
    for bi in range(4):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                M.entries[xi(bi, a)][xi(bi, b)] = gamma_entry(0, a, b, 1, None)
    # upper base blocks: (gamma index, gamma sign, alpha correction Coeff)
    pattern = {
        (0, 1): (1, -1, lm1), (0, 2): (2, -1, -ONE), (0, 3): (3, -1, lm1),
        (1, 2): (3, -1, -lm1), (1, 3): (2, 1, -ONE), (2, 3): (1, -1, -lm1),
    }
    for (bi, bj), (m, gsign, acorr) in pattern.items():
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                M.entries[xi(bi, a)][xi(bj, b)] = gamma_entry(m, a, b, gsign, acorr)
                M.entries[xi(bj, b)][xi(bi, a)] = gamma_entry(m, b, a, -gsign, -acorr)
    return _at(M, p)


def curvature_canonical(p: MetricParams) -> FormMatrix:
    basis, rules, frames, gamma = _solved(p)
    return _at(curvature(gamma, rules), p)


def ricci_canonical(p: MetricParams) -> RicciDiag:
    basis, rules, frames, gamma = _solved(p)
    om = curvature(gamma, rules)
    for row in om.entries:
        for e in row:
            for (i, j) in e.coeffs:
                if basis.labels[i][0] == "G" or basis.labels[j][0] == "G":
                    raise ValueError("canonical curvature entry involves a Gamma~ form")
    ric = ricci_matrix(om, frames)
    if p.lambda2 is not None:
        ric = [[c.specialize(p.lambda2) for c in row] for row in ric]
    return _ricci_diag(ric)


def einstein_solve_canonical(n: int) -> set[Fraction]:
    """Exact root set of (n+1) mu^2 - (n+2) mu + 1 = 0 in mu = lambda^2."""
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    return {Fraction(1), Fraction(1, n + 1)}


def ricci_map_canonical(p: MetricParams) -> MetricParams:
    """Image of rho g^can under g -> Ric(g), rescaled back into the family."""
    if p.lambda2 is None:
        raise ValueError("ricci map needs a numeric lambda^2")
    mu = p.lambda2
    if mu >= p.n + 2:
        raise OutOfDomain("requires lambda^2 < n + 2")
    factor = 4 * (p.n + 2 - mu)
    mu_new = (1 + p.n * mu * mu) / (p.n + 2 - mu)
    return MetricParams(p.n, lambda2=mu_new, rho=factor * p.rho, s_ratio=p.s_ratio)


def kahler_criterion(p: MetricParams) -> bool:
    """Whether the complex-basis connection is skew-Hermitian.

    True exactly when the connection preserves the orthogonal complex
    structure, i.e. the (1,0)x(0,1) coupling of the complexified matrix
    vanishes; the holomorphic block is then automatically skew-Hermitian.
    """
    if p.lambda2 is None:
        raise ValueError("kahler criterion needs a numeric lambda^2")
    from .gaussc import complex_transform, hol_block_skew_hermitian, mixing_blocks_zero
    cmat = complex_transform(connection_canonical(p), p.n)
    if not mixing_blocks_zero(cmat, p.n):
        return False
    if not hol_block_skew_hermitian(cmat, p.n):
        raise ValueError("complex-structure-preserving connection fails skew-Hermitian check")
    return True


def contact_check(n: int, s_ratio: Fraction | None = None) -> dict:
    """Verify d zeta^0 = -2i alpha_2 ^ zeta^0 + (S/S~)(tZ^2 ^ Z^1 - tZ^1 ^ Z^2).

    Returns per-part booleans; s_ratio None keeps the ratio symbolic.
    """
    from .forms import exterior_derivative
    basis = Basis(n)
    sig = _s_ratio_coeff(s_ratio)
    rules = make_rules(_sp_structure(n), basis, s_ratio=sig)
    sigc = sig if sig is not None else ONE
    a1 = OneForm.basis(basis.a(1), ONE)
    a3 = OneForm.basis(basis.a(3), ONE)
    d_re = exterior_derivative(a1, rules)
    d_im = exterior_derivative(a3, rules)

    def txx(i: int, j: int) -> TwoForm:
        return TwoForm.build([(basis.x(i, a), basis.x(j, a), ONE)
                              for a in range(1, n + 1)])

    from .forms import wedge
    a2 = OneForm.basis(basis.a(2), ONE)
    # -2i a2 ^ (a1 + i a3) = 2 a2^a3 + i(-2 a2^a1)
    fiber_re = wedge(a2, a3).scale(ONE.scale(2))
    fiber_im = wedge(a2, a1).scale(ONE.scale(-2))
    # tZ^2^Z^1 - tZ^1^Z^2 = 2(tX^1^X^0 - tX^3^X^2) + 2i(tX^3^X^0 + tX^1^X^2)
    base_re = (txx(1, 0) - txx(3, 2)).scale(sigc.scale(2))
    base_im = (txx(3, 0) + txx(1, 2)).scale(sigc.scale(2))
    report = {
        "real_part": d_re == fiber_re + base_re,
        "imag_part": d_im == fiber_im + base_im,
        "sp1_split_consistent": (d_re - base_re == fiber_re)
                                and (d_im - base_im == fiber_im),
    }
    report["holds"] = report["real_part"] and report["imag_part"]
    return report
