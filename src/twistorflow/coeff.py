"""Exact scalar ring for the moving-frame engine.

A Coeff is a rational Laurent polynomial in the scaling symbol lambda,
tensored with nilpotent jet symbols and formal grade-0 unknowns.  Any
product of jet symbols whose total grade reaches the active cutoff
(default 2) is truncated to zero.

Every stored coefficient is a nonzero rational in one canonical form: an
int when it is integral, a Fraction otherwise, never a float.  Most
coefficients are small integers, and int arithmetic is far cheaper than
Fraction arithmetic.  An int and the equal Fraction compare and hash equal,
so the form never changes an equality.  Values leaving the ring through
lam_poly and eval_lambda2 are Fractions.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

__all__ = [
    "Coeff",
    "ring_value",
    "JetSymbol",
    "jet_symbol",
    "jet_grade",
    "jet_cutoff",
    "active_cutoff",
    "ZERO",
    "ONE",
    "LAM",
]

# symbol registry: name -> (id, grade); grades indexed by id
_SYM_IDS: dict[str, int] = {}
_SYM_NAMES: list[str] = []
_SYM_GRADES: list[int] = []

_CUTOFF = 2


class JetSymbol:
    """Handle for a registered formal scalar (name plus nilpotency grade)."""

    __slots__ = ("name", "sid", "grade")

    def __init__(self, name: str, sid: int, grade: int):
        self.name = name
        self.sid = sid
        self.grade = grade

    def __repr__(self) -> str:
        return f"JetSymbol({self.name!r}, grade={self.grade})"


def jet_symbol(name: str, grade: int) -> JetSymbol:
    """Register (or fetch) a formal scalar symbol.

    Grade-1 symbols are nilpotent jets; grade-0 symbols are formal
    unknowns treated as constants by differentiation.
    """
    if name in _SYM_IDS:
        sid = _SYM_IDS[name]
        if _SYM_GRADES[sid] != grade:
            raise ValueError(f"symbol {name} already registered with grade {_SYM_GRADES[sid]}")
        return JetSymbol(name, sid, grade)
    sid = len(_SYM_NAMES)
    _SYM_IDS[name] = sid
    _SYM_NAMES.append(name)
    _SYM_GRADES.append(grade)
    return JetSymbol(name, sid, grade)


def jet_grade(sid: int) -> int:
    return _SYM_GRADES[sid]


def symbol_name(sid: int) -> str:
    return _SYM_NAMES[sid]


@contextmanager
def jet_cutoff(grade: int):
    """Temporarily change the truncation grade (default 2)."""
    global _CUTOFF
    old = _CUTOFF
    _CUTOFF = grade
    try:
        yield
    finally:
        _CUTOFF = old


def active_cutoff() -> int:
    """The truncation grade in force; part of the key of every symbolic memo."""
    return _CUTOFF


def _monomial_grade(mono: tuple[int, ...]) -> int:
    g = 0
    for sid in mono:
        g += _SYM_GRADES[sid]
    return g


def ring_value(x) -> int | Fraction:
    """x in the ring's stored form: an int when integral, else a Fraction."""
    if x.__class__ is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _canonical(terms: dict) -> dict:
    """Turn integral Fraction values into ints, in place."""
    for key, v in terms.items():
        if v.__class__ is not int and v.denominator == 1:
            terms[key] = v.numerator
    return terms


class Coeff:
    """Element of Q[lambda, lambda^-1] (x) jet algebra.

    terms maps (lambda exponent, sorted jet-id tuple) -> nonzero value, an
    int when integral and a Fraction otherwise (see ring_value).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, tuple[int, ...]], int | Fraction] | None = None):
        self.terms = terms or {}

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(x) -> "Coeff":
        return Coeff.lam_power(0, x)

    @staticmethod
    def lam_power(k: int, coeff=1) -> "Coeff":
        coeff = ring_value(coeff)
        return Coeff({(k, ()): coeff} if coeff else None)

    @staticmethod
    def symbol(sym: JetSymbol, coeff=1) -> "Coeff":
        coeff = ring_value(coeff)
        return Coeff({(0, (sym.sid,)): coeff} if coeff else None)

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Coeff") -> "Coeff":
        out = dict(self.terms)
        for key, v in other.terms.items():
            old = out.get(key)
            if old is not None:
                v += old
                if v.__class__ is not int and v.denominator == 1:
                    v = v.numerator
                if not v:
                    del out[key]
                    continue
            elif not v:
                continue
            out[key] = v
        return Coeff(out)

    def __neg__(self) -> "Coeff":
        return Coeff({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        cutoff = _CUTOFF
        out: dict = {}
        for (k1, m1), v1 in self.terms.items():
            for (k2, m2), v2 in other.terms.items():
                if m1 and m2:
                    mono = tuple(sorted(m1 + m2))
                    if _monomial_grade(mono) >= cutoff:
                        continue
                elif m1:
                    mono = m1
                else:
                    mono = m2
                key = (k1 + k2, mono)
                v = v1 * v2
                old = out.get(key)
                if old is not None:
                    v += old
                    if not v:
                        del out[key]
                        continue
                elif not v:
                    continue
                out[key] = v
        return Coeff(_canonical(out))

    def scale(self, x) -> "Coeff":
        x = ring_value(x)
        if not x:
            return Coeff()
        return Coeff(_canonical({k: v * x for k, v in self.terms.items()}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure queries ---------------------------------------------
    def grade_part(self, grade: int) -> "Coeff":
        return Coeff({k: v for k, v in self.terms.items() if _monomial_grade(k[1]) == grade})

    def max_grade(self) -> int:
        return max((_monomial_grade(m) for (_, m) in self.terms), default=0)

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for (_, mono) in self.terms:
            for sid in mono:
                out.add(_SYM_NAMES[sid])
        return out

    def is_jet_free(self) -> bool:
        return all(not m for (_, m) in self.terms)

    def lam_poly(self) -> dict[int, Fraction]:
        """Laurent coefficients, only valid for jet-free values."""
        out: dict[int, Fraction] = {}
        for (k, mono), v in self.terms.items():
            if mono:
                raise ValueError("jet symbols present; not a pure Laurent polynomial")
            out[k] = out.get(k, Fraction(0)) + v
        return out

    def eval_lambda2(self, mu) -> Fraction:
        """Evaluate a jet-free, even-degree Laurent polynomial at lambda^2 = mu."""
        mu = Fraction(mu)
        total = Fraction(0)
        for k, v in self.lam_poly().items():
            if k % 2:
                raise ValueError("odd lambda power; value depends on sqrt(lambda^2)")
            total += v * mu ** (k // 2)
        return total

    def inverse(self) -> "Coeff":
        """Inverse of u*(1 + nilpotent) where u is a single Laurent monomial unit."""
        unit_terms = {k: v for k, v in self.terms.items() if not k[1]}
        if len(unit_terms) != 1:
            raise ValueError("inverse requires a single jet-free Laurent monomial unit part")
        (k0, _), v0 = next(iter(unit_terms.items()))
        inv_unit = Coeff.lam_power(-k0, Fraction(1) / v0)
        rest = (self - Coeff({(k0, ()): v0})) * inv_unit
        # Neumann series; nilpotency bounds the iteration by the cutoff
        result = ONE
        power = ONE
        for _ in range(_CUTOFF):
            power = power * rest
            if power.is_zero():
                break
            result = result + (power if _ % 2 == 1 else -power)
        return inv_unit * result

    def specialize(self, mu) -> "Coeff":
        """Image under lambda^k -> mu^(k // 2) lambda^(k % 2).

        The ring map onto Q[lambda]/(lambda^2 - mu) (x) jets that fixes a
        numeric lambda^2 = mu.  lambda is a constant, so the map commutes with
        d: computing symbolically and specializing the result is exact.
        """
        mu = Fraction(mu)
        out: dict = {}
        for (k, mono), v in self.terms.items():
            q, r = divmod(k, 2)
            key = (r, mono)
            out[key] = out.get(key, 0) + v * mu ** q
        return Coeff(_canonical({key: v for key, v in out.items() if v}))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (k, mono), v in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            s = str(v)
            if k:
                s += f"*L^{k}"
            for sid in mono:
                s += f"*{_SYM_NAMES[sid]}"
            bits.append(s)
        return " + ".join(bits)


ZERO = Coeff()
ONE = Coeff.rational(1)
LAM = Coeff.lam_power(1)

