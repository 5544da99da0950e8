"""The canonical deformation metric family on the twistor space.

Connection and curvature are derived from the first structure equation of
the coframe {lambda alpha_1, lambda alpha_3, X^0..X^3}; the Ricci tensor is
computed by exact contraction over the orthonormal dual frame, never by
transcribing the closed-form answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeff import ONE, Coeff, active_cutoff, jet_symbol
from .connections import levi_civita, ricci_matrix
from .forms import Basis, FormMatrix, OneForm, curvature, exterior_derivative, specialize, wedge
from .liealg import _sp_structure, _tx_wedge_x, make_rules

__all__ = [
    "MetricParams",
    "RicciDiag",
    "OutOfDomain",
    "connection_canonical",
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


class MetricParams:
    """Parameters of a twistor metric: lambda2 None means symbolic lambda.

    An immutable value: equal parameters compare equal and hash alike."""

    __slots__ = ("n", "lambda2", "rho", "s_ratio")

    def __init__(self, n: int, lambda2: Fraction | None = None, rho: Fraction = Fraction(1),
                 s_ratio: Fraction | None = Fraction(1)):
        if n < 2:
            raise ValueError("paper setting requires n > 1")
        if lambda2 is not None and lambda2 <= 0:
            raise ValueError("lambda^2 must be positive")
        if rho <= 0:
            raise ValueError("rho must be positive")
        if s_ratio is not None and s_ratio <= 0:
            raise ValueError("S/S~ must be positive")
        for name, value in zip(self.__slots__, (n, lambda2, rho, s_ratio)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"MetricParams is immutable: cannot set {name}")

    def _key(self) -> tuple:
        return self.n, self.lambda2, self.rho, self.s_ratio

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class RicciDiag:
    """Diagonal Ricci coefficients of a fiber/base block metric, symbolic in
    lambda; fiber_at and base_at evaluate them at lambda^2 = mu."""

    __slots__ = ("fiber", "base", "off_diagonal_zero")

    def __init__(self, fiber: Coeff, base: Coeff, off_diagonal_zero: bool):
        self.fiber = fiber
        self.base = base
        self.off_diagonal_zero = off_diagonal_zero

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.fiber, self.base, self.off_diagonal_zero)
                == (other.fiber, other.base, other.off_diagonal_zero))

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
    return basis, rules, coframe, frames


@lru_cache(maxsize=None)
def _solve_canonical(n: int, s_ratio: Fraction | None, cutoff: int):
    """(basis, rules, frames, Levi-Civita connection) of g^can, symbolic in
    lambda.  cutoff is the active jet cutoff, part of the key only.  The
    result is shared by every caller and must not be mutated."""
    basis, rules, coframe, frames = canonical_setup(MetricParams(n, s_ratio=s_ratio))
    return basis, rules, frames, levi_civita(coframe, rules)


def _solved(p: MetricParams):
    return _solve_canonical(p.n, p.s_ratio, active_cutoff())


def connection_canonical(p: MetricParams) -> FormMatrix:
    basis, rules, frames, gamma = _solved(p)
    return _at(gamma, p)


def curvature_canonical(p: MetricParams) -> FormMatrix:
    basis, rules, frames, gamma = _solved(p)
    return _at(curvature(gamma, rules), p)


def ricci_canonical(p: MetricParams) -> RicciDiag:
    """Ricci of g^can by exact contraction, symbolic in lambda for every p:
    a numeric p.lambda2 is not applied here but by RicciDiag.fiber_at/base_at."""
    basis, rules, frames, gamma = _solved(p)
    om = curvature(gamma, rules)
    for row in om.entries:
        for e in row:
            for (i, j) in e.coeffs:
                if basis.labels[i][0] == "G" or basis.labels[j][0] == "G":
                    raise ValueError("canonical curvature entry involves a Gamma~ form")
    return _ricci_diag(ricci_matrix(om, frames))


def einstein_solve_canonical(n: int) -> set[Fraction]:
    """Exact root set of (n+1) mu^2 - (n+2) mu + 1 = 0 in mu = lambda^2."""
    if n < 2:
        raise ValueError("paper setting requires n > 1")
    return {Fraction(1), Fraction(1, n + 1)}


def ricci_map_canonical(p: MetricParams) -> MetricParams:
    """Image of rho g^can under g -> Ric(g), rescaled back into the family;
    homothety invariance of Ric makes the image independent of rho."""
    if p.lambda2 is None:
        raise ValueError("ricci map needs a numeric lambda^2")
    mu = p.lambda2
    if mu >= p.n + 2:
        raise OutOfDomain("requires lambda^2 < n + 2")
    factor = 4 * (p.n + 2 - mu)
    mu_new = (1 + p.n * mu * mu) / (p.n + 2 - mu)
    return MetricParams(p.n, lambda2=mu_new, rho=factor, s_ratio=p.s_ratio)


def kahler_criterion(p: MetricParams) -> bool:
    """Whether the connection Gamma at p commutes with the orthogonal complex
    structure J, decided on the real entries of the specialised Gamma.

    Commuting with J is the vanishing of the (1,0)x(0,1) blocks of the
    complex-basis connection.  The entry of its holomorphic block over the
    slot pairs (r1, r2) and (t1, t2) is then Gamma[r1][t1] + i Gamma[r2][t1],
    so that block is skew-Hermitian exactly when Gamma is skew; a Gamma that
    commutes with J but is not skew raises ValueError.
    """
    if p.lambda2 is None:
        raise ValueError("kahler criterion needs a numeric lambda^2")
    from .gaussc import commutes_with_j
    gamma = connection_canonical(p)
    if not commutes_with_j(gamma, p.n):
        return False
    if not gamma.is_skew():
        raise ValueError("complex-structure-preserving connection fails skew-Hermitian check")
    return True


def contact_check(n: int, s_ratio: Fraction | None = None) -> dict:
    """Verify d zeta^0 = -2i alpha_2 ^ zeta^0 + (S/S~)(tZ^2 ^ Z^1 - tZ^1 ^ Z^2).

    Returns per-part booleans; s_ratio None keeps the ratio symbolic.
    """
    basis = Basis(n)
    sig = _s_ratio_coeff(s_ratio)
    rules = make_rules(_sp_structure(n), basis, s_ratio=sig)
    sigc = sig if sig is not None else ONE
    a1 = OneForm.basis(basis.a(1), ONE)
    a3 = OneForm.basis(basis.a(3), ONE)
    d_re = exterior_derivative(a1, rules)
    d_im = exterior_derivative(a3, rules)
    a2 = OneForm.basis(basis.a(2), ONE)
    # -2i a2 ^ (a1 + i a3) = 2 a2^a3 + i(-2 a2^a1)
    fiber_re = wedge(a2, a3).scale(ONE.scale(2))
    fiber_im = wedge(a2, a1).scale(ONE.scale(-2))
    # tZ^2^Z^1 - tZ^1^Z^2 = 2(tX^1^X^0 - tX^3^X^2) + 2i(tX^3^X^0 + tX^1^X^2)
    base_re = (_tx_wedge_x(basis, 1, 0) - _tx_wedge_x(basis, 3, 2)).scale(sigc.scale(2))
    base_im = (_tx_wedge_x(basis, 3, 0) + _tx_wedge_x(basis, 1, 2)).scale(sigc.scale(2))
    report = {
        "real_part": d_re == fiber_re + base_re,
        "imag_part": d_im == fiber_im + base_im,
        "sp1_split_consistent": (d_re - base_re == fiber_re)
                                and (d_im - base_im == fiber_im),
    }
    report["holds"] = report["real_part"] and report["imag_part"]
    return report
