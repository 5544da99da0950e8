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

Sums of many terms accumulate in place: mul_into and add_into write into a
raw term map, and close turns it into one Coeff.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

__all__ = [
    "Coeff",
    "ring_value",
    "mul_into",
    "add_into",
    "close",
    "jet_symbol",
    "symbol_name",
    "jet_cutoff",
    "active_cutoff",
    "ZERO",
    "ONE",
]

# symbol registry: name -> id; names and grades indexed by id
_SYM_IDS: dict[str, int] = {}
_SYM_NAMES: list[str] = []
_SYM_GRADES: list[int] = []

_CUTOFF = 2


def jet_symbol(name: str, grade: int) -> int:
    """Register (or fetch) a formal scalar symbol; its id is its one handle.

    Grade-1 symbols are nilpotent jets; grade-0 symbols are formal
    unknowns treated as constants by differentiation.
    """
    sid = _SYM_IDS.get(name)
    if sid is not None:
        if _SYM_GRADES[sid] != grade:
            raise ValueError(f"symbol {name} already registered with grade {_SYM_GRADES[sid]}")
        return sid
    sid = len(_SYM_NAMES)
    _SYM_IDS[name] = sid
    _SYM_NAMES.append(name)
    _SYM_GRADES.append(grade)
    return sid


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
    cls = x.__class__
    if cls is int:
        return x
    if cls is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def mul_into(out: dict, a: dict, b: dict, s=1) -> None:
    """out += s * a * b over term maps, truncated at the active cutoff.

    The one product loop of the ring: Coeff.__mul__ and every sparse sum of
    products run through it.  a and b may be raw, and out is raw: a term map
    that may hold zeros and integral Fractions until close reads it, so a sum
    of many products allocates one Coeff, not one per term.
    """
    cutoff = _CUTOFF
    grades = _SYM_GRADES
    get = out.get
    for (k1, m1), v1 in a.items():
        if s != 1:
            v1 = s * v1
        for (k2, m2), v2 in b.items():
            if m1 and m2:
                mono = tuple(sorted(m1 + m2))
                g = 0
                for sid in mono:
                    g += grades[sid]
                if g >= cutoff:
                    continue
            elif m1:
                mono = m1
            else:
                mono = m2
            key = (k1 + k2, mono)
            out[key] = get(key, 0) + v1 * v2


def add_into(out: dict, a: dict, s=1) -> None:
    """out += s * a over term maps; out is raw, as in mul_into."""
    get = out.get
    for key, v in a.items():
        out[key] = get(key, 0) + (v if s == 1 else s * v)


def close(raw: dict) -> "Coeff":
    """The Coeff of a raw term map: zeros dropped, integral values as ints."""
    terms = {}
    for key, v in raw.items():
        if v:
            if v.__class__ is not int and v.denominator == 1:
                v = v.numerator
            terms[key] = v
    return Coeff(terms)


_UNIT_TERMS = {(0, ()): 1}


class Coeff:
    """Element of Q[lambda, lambda^-1] (x) jet algebra.

    terms maps (lambda exponent, sorted jet-id tuple) -> nonzero value, an
    int when integral and a Fraction otherwise (see ring_value).  Values are
    immutable: terms is never changed after construction, by this class or
    any caller, so a result may be an operand itself.
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
    def symbol(sid: int, coeff=1) -> "Coeff":
        coeff = ring_value(coeff)
        return Coeff({(0, (sid,)): coeff} if coeff else None)

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Coeff") -> "Coeff":
        out = dict(self.terms)
        add_into(out, other.terms)
        return close(out)

    def __neg__(self) -> "Coeff":
        return Coeff({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        # a unit factor returns the other factor: the kernel would copy it
        # term for term (a jet-free factor never truncates)
        if other.terms == _UNIT_TERMS:
            return self
        if self.terms == _UNIT_TERMS:
            return other
        out: dict = {}
        mul_into(out, self.terms, other.terms)
        return close(out)

    def scale(self, x) -> "Coeff":
        x = ring_value(x)
        if not x:
            return Coeff()
        return close({k: v * x for k, v in self.terms.items()})

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
        """True when no term holds a symbol, a jet or a formal unknown."""
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
        """Inverse of u*(1 + nilpotent) where u is a single Laurent monomial unit.

        Every other term must carry a jet of grade >= 1: a term of grade 0 (a
        formal unknown without a jet) is not nilpotent, and the truncated
        Neumann series would not invert it.
        """
        unit_terms = {k: v for k, v in self.terms.items() if not k[1]}
        if len(unit_terms) != 1:
            raise ValueError("inverse requires a single jet-free Laurent monomial unit part")
        if any(mono and not _monomial_grade(mono) for _, mono in self.terms):
            raise ValueError("inverse requires every term beyond the unit part to have grade >= 1")
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
        return close(out)

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

