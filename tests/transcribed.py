"""The displayed connection matrix of the canonical family, transcribed.

`canonical.connection_canonical` solves the connection from the first
structure equation; this module keeps the displayed matrix as a test oracle,
outside the package, so the engine itself reports only computed values.
"""

from twistorflow.canonical import MetricParams
from twistorflow.coeff import ONE, Coeff
from twistorflow.forms import Basis, FormMatrix, OneForm, specialize


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
    M = FormMatrix.zero(dim)

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
    return M if p.lambda2 is None else specialize(M, p.lambda2)
