from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistorflow.coeff import Coeff, ONE, ZERO, jet_cutoff, jet_symbol
from twistorflow.forms import DerivativeRules, OneForm, specialize


A = jet_symbol("tA", 1)
B = jet_symbol("tB", 1)
P = jet_symbol("tP", 0)


def rational(x):
    return Coeff.rational(x)


def test_ring_basics():
    two = rational(2)
    three = rational(3)
    assert two + three == rational(5)
    assert two * three == rational(6)
    assert (two - two).is_zero()
    assert two * ZERO == ZERO
    assert (ONE + (-ONE)).is_zero()


def test_zero_pruning_canonical_equality():
    x = rational(Fraction(1, 3)) + rational(Fraction(2, 3))
    assert x == ONE
    y = Coeff.lam_power(2) - Coeff.lam_power(2)
    assert y.terms == {}


def test_laurent_arithmetic():
    lam = Coeff.lam_power(1)
    inv = Coeff.lam_power(-1)
    assert lam * inv == ONE
    expr = Coeff.lam_power(3, 2) + Coeff.lam_power(1, -1)  # 2 L^3 - L
    assert expr.lam_poly() == {3: Fraction(2), 1: Fraction(-1)}
    assert (Coeff.lam_power(2) + Coeff.lam_power(-2)).eval_lambda2(Fraction(1, 2)) \
        == Fraction(1, 2) + 2


def test_odd_power_eval_rejected():
    with pytest.raises(ValueError):
        Coeff.lam_power(1).eval_lambda2(2)


def test_jet_nilpotency():
    a = Coeff.symbol(A)
    b = Coeff.symbol(B)
    p = Coeff.symbol(P)
    assert (a * b).is_zero()
    assert (a * a).is_zero()
    assert not (a * p).is_zero()
    assert (a * p * b).is_zero()
    with jet_cutoff(3):
        assert not (a * b).is_zero()
        assert (a * b * a).is_zero()
    # the cutoff in force decides, whichever cutoff was used first
    assert (a * b).is_zero()


def test_grade_parts_and_symbols():
    x = rational(5) + Coeff.symbol(A, 3) + Coeff.symbol(P, 2)
    assert x.grade_part(0) == rational(5) + Coeff.symbol(P, 2)
    assert x.grade_part(1) == Coeff.symbol(A, 3)
    assert x.symbols() == {"tA", "tP"}
    assert not x.is_jet_free()
    assert rational(7).is_jet_free()


# a Coeff built through the ring operations, so it respects the jet cutoff
_terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                            st.lists(st.sampled_from([A, B, P]), max_size=2)),
                  max_size=4)


def _build(terms):
    total = ZERO
    for k, c, syms in terms:
        t = Coeff.lam_power(k, c)
        for sym in syms:
            t = t * Coeff.symbol(sym)
        total = total + t
    return total


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, st.fractions(Fraction(1, 9), 9, max_denominator=9),
       st.integers(-3, 3), st.integers(1, 5), st.fractions(max_denominator=5),
       st.sampled_from([2, 3]))
def test_specialize_is_a_ring_map(tx, ty, mu, k, u0, q, cutoff):
    # specialize maps onto Q[lambda]/(lambda^2 - mu) (x) jets, so a product
    # on that side is reduced again before comparing
    def sp(c):
        return c.specialize(mu)

    with jet_cutoff(cutoff):
        x, y = _build(tx), _build(ty)
        assert Coeff.lam_power(2).specialize(mu) == Coeff.rational(mu)
        assert Coeff.lam_power(-1).specialize(mu) == Coeff.lam_power(1, 1 / mu)
        assert sp(x + y) == sp(x) + sp(y)
        assert sp(x * y) == sp(sp(x) * sp(y))
        assert sp(-x) == -sp(x)
        assert sp(x.scale(q)) == sp(x).scale(q)
        # units: a Laurent monomial times (1 + nilpotent)
        nil = _build([(kk, c, [A] + s) for kk, c, s in tx])
        unit = Coeff.lam_power(k, u0) * (ONE + nil)
        assert sp(unit.inverse()) == sp(sp(unit).inverse())
        assert sp(sp(unit) * sp(unit.inverse())) == ONE
        # lambda is a constant, so specialize commutes with d
        rules = DerivativeRules([]).with_jets({
            A: OneForm.build([(0, Coeff.lam_power(-1, 2) + Coeff.symbol(B)),
                              (3, Coeff.lam_power(3))]),
            B: OneForm.build([(1, Coeff.lam_power(1)), (4, Coeff.symbol(P, -1))]),
        })
        assert specialize(rules.d_coeff(sp(x)), mu) == specialize(rules.d_coeff(x), mu)


def _in_value_form(c):
    return all((v.__class__ is int and v != 0)
               or (v.__class__ is Fraction and v.denominator != 1)
               for v in c.terms.values())


_nonzero = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6)).filter(bool)


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, st.integers(-3, 3), _nonzero, _nonzero,
       st.fractions(Fraction(1, 9), 9, max_denominator=9), st.sampled_from([2, 3]))
def test_values_are_ints_or_proper_fractions(tx, ty, k, u0, q, mu, cutoff):
    # a stored value is a nonzero int when integral and a Fraction otherwise,
    # never a float; q and 1/q make integral products of Fractions
    with jet_cutoff(cutoff):
        x, y = _build(tx), _build(ty)
        xq, yq = x.scale(q), y.scale(Fraction(1) / q)
        nil = _build([(kk, c, [A] + syms) for kk, c, syms in tx])
        # leading coefficients other than +-1 are where 1 / v0 gives a float
        unit = Coeff.lam_power(k, u0) * (ONE + nil)
        inv = unit.inverse()
        assert unit * inv == ONE
        results = [x + y, x - y, x * y, -x, xq, yq, xq * yq, xq + yq, xq - x.scale(q - 1),
                   unit, inv, Coeff.rational(q), Coeff.lam_power(k, q), Coeff.symbol(A, q)]
        results += [c.specialize(mu) for c in results]
        for c in results:
            assert _in_value_form(c)
        # an int-valued Coeff equals, and hashes like, its Fraction-valued twin
        for c in (x, xq):
            twin = Coeff({key: Fraction(v) for key, v in c.terms.items()})
            assert twin == c and hash(twin) == hash(c)
    # values leave the ring as Fractions
    flat = _build([(2 * kk, c, []) for kk, c, _ in tx]).scale(q)
    assert all(type(v) is Fraction for v in flat.lam_poly().values())
    assert type(flat.eval_lambda2(mu)) is Fraction
    assert type(Coeff.lam_power(2, 3).eval_lambda2(2)) is Fraction


def test_inverse():
    lam = Coeff.lam_power(3, Fraction(2, 5))
    assert lam * lam.inverse() == ONE
    u = rational(2) + Coeff.symbol(A)
    assert (u * u.inverse()) == ONE
    with pytest.raises(ValueError):
        (rational(1) + Coeff.lam_power(1)).inverse()
    # a grade-0 unknown is not nilpotent: the series would give 1 - P + P^2,
    # whose product with 1 + P is 1 + P^3
    for bad in (ONE + Coeff.symbol(P), ONE + Coeff.symbol(A) + Coeff.symbol(P, 3)):
        with pytest.raises(ValueError, match="grade >= 1"):
            bad.inverse()
    v = ONE + Coeff.symbol(P) * Coeff.symbol(A)
    assert v * v.inverse() == ONE


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, _terms, st.sampled_from([2, 3]))
def test_random_ring_axioms(tx, ty, tz, cutoff):
    with jet_cutoff(cutoff):
        x, y, z = _build(tx), _build(ty), _build(tz)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y * z) == (x * y) * z
        assert (x + y) * z == x * z + y * z
        assert x * (y - z) == x * y - x * z


def _snapshot(*cs):
    return [dict(c.terms) for c in cs]


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, st.fractions(-5, 5, max_denominator=6),
       st.fractions(Fraction(1, 9), 9, max_denominator=9), st.sampled_from([2, 3]))
def test_unit_law_and_operands_are_never_changed(tx, ty, q, mu, cutoff):
    # Coeff values are immutable: a product by exactly 1 may return the other
    # factor itself, so no later operation may change the terms of anything
    with jet_cutoff(cutoff):
        x, y = _build(tx), _build(ty)
        before = _snapshot(x, y, ONE)
        ux, xu = ONE * x, x * ONE
        assert ux == x and xu == x
        results = [x + y, x - y, x * y, -x, x.scale(q), x.grade_part(0), x.grade_part(1),
                   x.specialize(mu), ux + y, xu * y, ux - ux, xu.scale(q), ONE * ONE]
        assert _snapshot(x, y, ONE) == before
        assert ux == x and xu == x and ONE.terms == {(0, ()): 1}
        # results are equal to, not entangled with, each other
        snap = _snapshot(*results)
        for a in results:
            for b in results:
                a + b, a * b, a - b
        assert _snapshot(*results) == snap
