"""The orthogonal complex structure J of the twistor space, read on the real
coframe slots: no complex entry is ever formed.

J pairs the real slots (alpha_1, alpha_3), (X^0_a, X^2_a) and (X^1_a, X^3_a),
the real and imaginary parts of zeta^0 = alpha_1 + i alpha_3,
Z^1_a = X^0_a + i X^2_a and Z^2_a = X^1_a + i X^3_a.
"""

from __future__ import annotations

from .forms import FormMatrix

__all__ = ["j_pairs", "commutes_with_j"]


def j_pairs(n: int) -> list[tuple[int, int]]:
    """The slot pairs (r1, r2) that J pairs, over the real slots (alpha_1,
    alpha_3, then X^i_a at 2 + i n + a - 1), in the order zeta^0, Z^1_a, Z^2_a."""
    pairs = [(0, 1)] + [(1 + a, 1 + 2 * n + a) for a in range(1, n + 1)]
    return pairs + [(1 + n + a, 1 + 3 * n + a) for a in range(1, n + 1)]


def commutes_with_j(m: FormMatrix, n: int) -> bool:
    """Whether the real (4n+2) form matrix m commutes with J.

    That holds exactly when, for every two slot pairs (r1, r2) and (t1, t2),
    m[r1][t1] = m[r2][t2] and m[r1][t2] = -m[r2][t1]: the vanishing of the
    (1,0) x (0,1) blocks of U m U^-1 in the complex basis, entry by entry.
    Entries may be one- or two-forms.
    """
    M = m.entries
    pairs = j_pairs(n)
    return all(M[r1][t1] == M[r2][t2] and (M[r1][t2] + M[r2][t1]).is_zero()
               for r1, r2 in pairs for t1, t2 in pairs)
